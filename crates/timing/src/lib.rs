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
//!   ends at primary outputs and flip-flop D pins (setup-constrained),
//!   against the paper's 0.5 ns cycle.
//!
//! The report exposes the paper's Table 2 metric — the average slack over
//! the 10 most critical paths ([`TimingReport::avg_top_slack`]) — plus the
//! per-net criticalities the timing-driven placer and packer consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod incremental;
pub mod power;

pub use incremental::{ArcDelays, IncrementalSta, StaCounters, TimingGraph};

use vpga_core::params;
use vpga_netlist::{CellId, CellKind, Library, NetId, Netlist};
use vpga_place::Placement;
use vpga_route::RoutingResult;

/// Analysis settings.
#[derive(Clone, Copy, Debug)]
pub struct TimingConfig {
    /// Clock period, ps (the paper uses 500 ps).
    pub clock_period: f64,
    /// Flip-flop setup time, ps.
    pub setup: f64,
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig {
            clock_period: params::CLOCK_PERIOD_PS,
            setup: params::DFF_SETUP_PS,
        }
    }
}

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
    config: TimingConfig,
}

impl TimingReport {
    /// Arrival time on a net, ps.
    pub fn net_arrival(&self, net: NetId) -> f64 {
        self.arrival.get(net.index()).copied().unwrap_or(0.0)
    }

    /// Slack of a net, ps (minimum over paths through it).
    pub fn net_slack(&self, net: NetId) -> f64 {
        self.slack
            .get(net.index())
            .copied()
            .unwrap_or(self.config.clock_period)
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
            .unwrap_or(self.config.clock_period)
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
            return self.config.clock_period;
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
        let mut out = Vec::new();
        self.net_criticalities_into(&mut out);
        out
    }

    /// [`TimingReport::net_criticalities`] into a caller-provided buffer —
    /// the hot-path variant that amortizes the allocation across repeated
    /// queries.
    pub fn net_criticalities_into(&self, out: &mut Vec<f64>) {
        let d = self.worst_arrival.max(1e-9);
        out.clear();
        out.extend(self.slack.iter().map(|&s| {
            let c = 1.0 - s.max(0.0) / (d + self.config.clock_period - d).max(d);
            c.clamp(0.0, 1.0)
        }));
    }

    /// Per-cell criticality (the maximum criticality over the nets a cell
    /// touches), for the packer's relocation cost.
    pub fn cell_criticalities(&self, netlist: &Netlist) -> Vec<f64> {
        let mut out = Vec::new();
        self.cell_criticalities_into(netlist, &mut out);
        out
    }

    /// [`TimingReport::cell_criticalities`] into a caller-provided buffer.
    pub fn cell_criticalities_into(&self, netlist: &Netlist, out: &mut Vec<f64>) {
        let mut nets = Vec::new();
        self.net_criticalities_into(&mut nets);
        out.clear();
        out.resize(netlist.cell_capacity(), 0.0);
        for net in netlist.nets() {
            let c = nets[net.index()];
            if let Some(d) = netlist.driver(net) {
                out[d.index()] = out[d.index()].max(c);
            }
            for &(sink, _) in netlist.sinks(net) {
                out[sink.index()] = out[sink.index()].max(c);
            }
        }
    }

    /// The analysis configuration.
    pub fn config(&self) -> TimingConfig {
        self.config
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
            self.config.clock_period
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

/// STA failures surfaced by [`try_analyze`]. The panicking [`analyze`]
/// entry point is a thin wrapper that aborts on these.
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

/// Runs static timing analysis.
///
/// `routing` supplies exact routed wirelengths; without it, wire parasitics
/// are estimated from the placement's half-perimeter bounding boxes
/// (pre-route timing).
///
/// # Panics
///
/// Panics if the netlist has combinational cycles (validate first).
pub fn analyze(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    routing: Option<&RoutingResult>,
    config: &TimingConfig,
) -> TimingReport {
    try_analyze(netlist, lib, placement, routing, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`analyze`]: a cyclic netlist comes back as a
/// [`TimingError`] instead of aborting the worker.
///
/// # Errors
///
/// [`TimingError::Cyclic`] if the combinational part of the netlist has a
/// cycle.
pub fn try_analyze(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    routing: Option<&RoutingResult>,
    config: &TimingConfig,
) -> Result<TimingReport, TimingError> {
    let order =
        vpga_netlist::graph::combinational_topo_order(netlist, lib).map_err(TimingError::Cyclic)?;
    let mut arrival = vec![0.0f64; netlist.net_capacity()];

    // Wire parasitics per net.
    let wire_len = |net: NetId| -> f64 {
        match routing {
            Some(r) => r.net_length(net),
            None => placement.net_hpwl(netlist, net),
        }
    };
    let sink_cap = |net: NetId| -> f64 {
        netlist
            .sinks(net)
            .iter()
            .filter_map(|&(cell, _)| {
                netlist
                    .cell(cell)
                    .and_then(|c| c.lib_id())
                    .and_then(|id| lib.cell(id))
                    .map(|c| c.input_cap())
            })
            .sum()
    };
    // Net delay after the driver's output: Elmore with lumped wire.
    let net_wire_delay = |net: NetId| -> f64 {
        let len = wire_len(net);
        let wire_cap = len * params::WIRE_CAP_PER_UM;
        len * params::WIRE_RES_PER_UM * (wire_cap / 2.0 + sink_cap(net))
    };
    let net_load = |net: NetId| -> f64 { wire_len(net) * params::WIRE_CAP_PER_UM + sink_cap(net) };

    // Launch points: primary inputs at t = 0, flip-flop Qs at clk→Q.
    let mut dffs: Vec<CellId> = Vec::new();
    for (id, cell) in netlist.cells() {
        match cell.kind() {
            CellKind::Input | CellKind::Constant(_) => {
                if let Some(net) = cell.output() {
                    arrival[net.index()] = if matches!(cell.kind(), CellKind::Input) {
                        net_wire_delay(net)
                    } else {
                        0.0
                    };
                }
            }
            CellKind::Lib(lib_id) => {
                let lc = lib.cell(lib_id).expect("lib cell");
                if lc.is_sequential() {
                    let q = cell.output().expect("DFF drives Q");
                    arrival[q.index()] = lc.delay(net_load(q)) + net_wire_delay(q);
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
        arrival[out.index()] = input_arrival + lc.delay(net_load(out)) + net_wire_delay(out);
    }
    // Endpoints and required times.
    let mut required = vec![f64::INFINITY; netlist.net_capacity()];
    let mut endpoints: Vec<Endpoint> = Vec::new();
    for &po in netlist.outputs() {
        let cell = netlist.cell(po).expect("live PO");
        let net = cell.inputs()[0];
        let req = config.clock_period;
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
        let req = config.clock_period - config.setup;
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
        let stage = lc.delay(net_load(out)) + net_wire_delay(out);
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
                config.clock_period
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
        config: *config,
    })
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
        let p = vpga_place::place(&n, arch.library(), &PlaceConfig::default());
        let report = analyze(&n, arch.library(), &p, None, &TimingConfig::default());
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
        let p = vpga_place::place(&n, arch.library(), &PlaceConfig::default());
        let report = analyze(&n, arch.library(), &p, None, &TimingConfig::default());
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
        let p = vpga_place::place(&n, arch.library(), &PlaceConfig::default());
        let pre = analyze(&n, arch.library(), &p, None, &TimingConfig::default());
        let r = vpga_route::route(&n, &p, &vpga_route::RouteConfig::default());
        let post = analyze(&n, arch.library(), &p, Some(&r), &TimingConfig::default());
        // Routed detours can only lengthen (or match) the HPWL estimate per
        // net, so the post-route critical delay is at least comparable.
        assert!(post.critical_delay() + 50.0 >= pre.critical_delay());
    }

    #[test]
    fn criticalities_are_normalized() {
        let (n, arch) = pipeline();
        let p = vpga_place::place(&n, arch.library(), &PlaceConfig::default());
        let report = analyze(&n, arch.library(), &p, None, &TimingConfig::default());
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
            let p = vpga_place::place(&n, &lib, &PlaceConfig::default());
            let report = analyze(&n, &lib, &p, None, &TimingConfig::default());
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
        let p = vpga_place::place(&n, arch.library(), &PlaceConfig::default());
        let report = analyze(&n, arch.library(), &p, None, &TimingConfig::default());
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
        let p = vpga_place::place(&n, arch.library(), &PlaceConfig::default());
        let report = analyze(&n, arch.library(), &p, None, &TimingConfig::default());
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
        let p = vpga_place::place(&n, arch.library(), &PlaceConfig::default());
        let report = analyze(&n, arch.library(), &p, None, &TimingConfig::default());
        assert!(report.worst_slack() > 400.0);
    }
}
