//! Incremental event-driven static timing analysis.
//!
//! [`try_analyze`](crate::try_analyze) rebuilds the whole timing picture
//! from scratch on every call: it re-levelizes the netlist, re-extracts
//! every net's parasitics, and re-propagates every arrival and required
//! time. The flow calls it after every placement refinement, after buffer
//! insertion, and once per packing variant — and between those calls only
//! a handful of nets actually changed. This module is the VPR-style
//! incremental timer that exploits that:
//!
//! * [`TimingGraph`] — the levelized timing DAG, built **once** per
//!   netlist: the combinational topological order (the levelization), a
//!   CSR fanout array mapping every net to its combinational sink cells,
//!   interned per-cell arc-delay parameters (`intrinsic`,
//!   `drive_resistance`, `input_cap`), the launch classification of every
//!   cell, and the endpoint list in the exact construction order
//!   `try_analyze` uses. Buffer-insertion edits patch the graph in place
//!   instead of forcing a rebuild.
//! * [`IncrementalSta`] — the stateful handle. Deltas (moved cells,
//!   inserted buffers, explicitly dirtied nets) seed a dirty frontier;
//!   arrivals propagate forward and required times backward event-driven,
//!   with early cutoff as soon as a recomputed value is **bit-identical**
//!   to the stored one.
//!
//! # Exactness
//!
//! The engine is epsilon-exact — in fact bit-exact: every per-node formula
//! is the same expression `try_analyze` evaluates, and the combining
//! operators (max over input arrivals, min over downstream required
//! candidates) are order-insensitive at the bit level on this data (all
//! values are finite, and exact zeros are always `+0.0` because they only
//! arise from `x - x` of finite positives). Recomputing any subset of
//! nodes therefore reproduces the full analysis exactly, and the early
//! cutoff (`to_bits` equality) can never suppress a change a full run
//! would have seen. `try_analyze` remains the oracle:
//! [`crate::try_analyze`] and [`IncrementalSta::report`] must agree bit
//! for bit at every checkpoint, which `flow::audit` cross-validates and
//! the proptest equivalence suite hammers.
//!
//! # Dirty-frontier invariants
//!
//! * Forward frontier entries are combinational cells, processed in
//!   increasing topological position; a cell is enqueued only through its
//!   input nets, so every input is final when the cell pops.
//! * Backward frontier entries are nets, processed in decreasing driver
//!   position (launch nets last); a net is enqueued only through its
//!   consumers, so every downstream required time is final when it pops.
//! * A value write happens only when the recomputed bits differ (or the
//!   net's structure changed), and every write enqueues exactly the nodes
//!   whose equations read the written value. Quiescent regions are never
//!   visited.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vpga_core::params;
use vpga_netlist::{CellId, CellKind, Library, NetId, Netlist};
use vpga_place::{BufferEdit, Placement};
use vpga_route::RoutingResult;

use crate::{Endpoint, TimingConfig, TimingError, TimingReport};

/// How a cell launches data into the combinational network, interned at
/// graph build so updates never re-derive it from the library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Launch {
    /// Not a launch point (combinational cell or primary output).
    None,
    /// Primary input: arrival = its net's wire delay.
    Input,
    /// Constant tie: arrival = 0.
    Constant,
    /// Sequential cell: Q launches at clk→Q plus wire delay.
    Sequential,
}

/// Work counters of an [`IncrementalSta`], surfaced by the flow's
/// per-stage statistics (`sta_full` / `sta_incremental` /
/// `sta_nodes_touched`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaCounters {
    /// Full (from-scratch) analysis passes.
    pub full: u64,
    /// Event-driven incremental updates (including cache-served reports).
    pub incremental: u64,
    /// Nodes (cells forward, nets backward) recomputed by event-driven
    /// updates; full passes do not count here.
    pub nodes_touched: u64,
}

impl StaCounters {
    /// The work done since `earlier` (a snapshot of the same engine).
    #[must_use]
    pub fn since(&self, earlier: StaCounters) -> StaCounters {
        StaCounters {
            full: self.full - earlier.full,
            incremental: self.incremental - earlier.incremental,
            nodes_touched: self.nodes_touched - earlier.nodes_touched,
        }
    }
}

/// The levelized timing DAG, built once per netlist and patched in place
/// as physical synthesis inserts buffers.
#[derive(Clone, Debug)]
pub struct TimingGraph {
    /// Combinational cells in a valid topological order (the
    /// levelization); buffer edits splice new cells in at a valid
    /// position.
    topo: Vec<CellId>,
    /// Dense cell-index → position in `topo`; `u32::MAX` marks a
    /// non-combinational cell.
    pos: Vec<u32>,
    /// CSR fanout over the build-time nets: `fanout[off[n]..off[n + 1]]`
    /// are net `n`'s combinational sink cells (one entry per pin).
    fanout_off: Vec<u32>,
    fanout: Vec<CellId>,
    /// Nets whose sink set changed after build (and nets created after
    /// build): their comb-sink lists live here and shadow the CSR.
    fanout_patch: std::collections::HashMap<usize, Vec<CellId>>,
    /// Interned arc-delay parameters, dense by cell index (zero for
    /// non-library cells).
    intrinsic: Vec<f64>,
    resistance: Vec<f64>,
    input_cap: Vec<f64>,
    /// Launch classification, dense by cell index.
    launch: Vec<Launch>,
    /// Endpoints in `try_analyze` construction order: primary outputs
    /// (netlist order), then sequential cells (cell-id order).
    ep_cells: Vec<CellId>,
    /// True for primary-output endpoints (required = clock period), false
    /// for sequential D pins (required = clock period − setup).
    ep_is_po: Vec<bool>,
    /// The net each endpoint currently samples (kept in sync when a
    /// buffer edit moves an endpoint pin).
    ep_net: Vec<NetId>,
    /// Dense cell-index → endpoint slot (`u32::MAX` = not an endpoint).
    ep_slot: Vec<u32>,
    /// Net index → endpoint slots sampling that net.
    eps_on_net: Vec<Vec<u32>>,
}

impl TimingGraph {
    /// Builds the graph: levelizes the netlist, interns every cell's arc
    /// parameters, and freezes the endpoint order.
    ///
    /// # Errors
    ///
    /// [`TimingError::Cyclic`] if the combinational netlist has a cycle.
    pub fn build(netlist: &Netlist, lib: &Library) -> Result<TimingGraph, TimingError> {
        let topo = vpga_netlist::graph::combinational_topo_order(netlist, lib)
            .map_err(TimingError::Cyclic)?;
        let ccap = netlist.cell_capacity();
        let ncap = netlist.net_capacity();
        let mut pos = vec![u32::MAX; ccap];
        for (i, c) in topo.iter().enumerate() {
            pos[c.index()] = i as u32;
        }
        let mut intrinsic = vec![0.0; ccap];
        let mut resistance = vec![0.0; ccap];
        let mut input_cap = vec![0.0; ccap];
        let mut launch = vec![Launch::None; ccap];
        let mut dffs: Vec<CellId> = Vec::new();
        for (id, cell) in netlist.cells() {
            match cell.kind() {
                CellKind::Input => launch[id.index()] = Launch::Input,
                CellKind::Constant(_) => launch[id.index()] = Launch::Constant,
                CellKind::Lib(lib_id) => {
                    let lc = lib.cell(lib_id).expect("lib cell");
                    intrinsic[id.index()] = lc.intrinsic_delay();
                    resistance[id.index()] = lc.drive_resistance();
                    input_cap[id.index()] = lc.input_cap();
                    if lc.is_sequential() {
                        launch[id.index()] = Launch::Sequential;
                        dffs.push(id);
                    }
                }
                CellKind::Output => {}
            }
        }
        // CSR fanout: net → combinational sink cells, one entry per pin.
        let mut fanout_off = vec![0u32; ncap + 1];
        for net in netlist.nets() {
            for &(c, _) in netlist.sinks(net) {
                if pos[c.index()] != u32::MAX {
                    fanout_off[net.index() + 1] += 1;
                }
            }
        }
        for i in 0..ncap {
            fanout_off[i + 1] += fanout_off[i];
        }
        let mut fanout = vec![CellId::from_index(0); fanout_off[ncap] as usize];
        let mut cursor = fanout_off.clone();
        for net in netlist.nets() {
            for &(c, _) in netlist.sinks(net) {
                if pos[c.index()] != u32::MAX {
                    fanout[cursor[net.index()] as usize] = c;
                    cursor[net.index()] += 1;
                }
            }
        }
        // Endpoints, in try_analyze construction order.
        let mut ep_cells = Vec::new();
        let mut ep_is_po = Vec::new();
        let mut ep_net = Vec::new();
        let mut ep_slot = vec![u32::MAX; ccap];
        let mut eps_on_net: Vec<Vec<u32>> = vec![Vec::new(); ncap];
        let mut push_ep = |cell: CellId, is_po: bool| {
            let net = netlist.cell(cell).expect("live endpoint").inputs()[0];
            let slot = ep_cells.len() as u32;
            ep_cells.push(cell);
            ep_is_po.push(is_po);
            ep_net.push(net);
            ep_slot[cell.index()] = slot;
            eps_on_net[net.index()].push(slot);
        };
        for &po in netlist.outputs() {
            push_ep(po, true);
        }
        for &ff in &dffs {
            push_ep(ff, false);
        }
        Ok(TimingGraph {
            topo,
            pos,
            fanout_off,
            fanout,
            fanout_patch: std::collections::HashMap::new(),
            intrinsic,
            resistance,
            input_cap,
            launch,
            ep_cells,
            ep_is_po,
            ep_net,
            ep_slot,
            eps_on_net,
        })
    }

    /// Net `net`'s combinational sink cells (patched lists shadow the
    /// build-time CSR).
    fn comb_sinks(&self, net: NetId) -> &[CellId] {
        if let Some(p) = self.fanout_patch.get(&net.index()) {
            return p;
        }
        let i = net.index();
        if i + 1 < self.fanout_off.len() {
            &self.fanout[self.fanout_off[i] as usize..self.fanout_off[i + 1] as usize]
        } else {
            &[]
        }
    }

    /// `delay(load)` of `cell`, from the interned parameters — the same
    /// expression as [`vpga_netlist::library::LibCell::delay`].
    fn cell_delay(&self, cell: CellId, load: f64) -> f64 {
        self.intrinsic[cell.index()] + self.resistance[cell.index()] * load.max(0.0)
    }

    /// The clock-constraint required time of endpoint `slot`.
    fn ep_req(&self, slot: u32, config: &TimingConfig) -> f64 {
        if self.ep_is_po[slot as usize] {
            config.clock_period
        } else {
            config.clock_period - config.setup
        }
    }

    /// Splices one buffer edit into the graph: interns the buffer's arc
    /// parameters, moves the edited sinks between the comb-sink lists,
    /// inserts the buffer at a valid topological position, and re-points
    /// any endpoint pins the edit moved.
    fn apply_edit(&mut self, netlist: &Netlist, lib: &Library, edit: &BufferEdit) {
        let ccap = netlist.cell_capacity();
        self.pos.resize(ccap, u32::MAX);
        self.intrinsic.resize(ccap, 0.0);
        self.resistance.resize(ccap, 0.0);
        self.input_cap.resize(ccap, 0.0);
        self.launch.resize(ccap, Launch::None);
        self.ep_slot.resize(ccap, u32::MAX);
        if self.eps_on_net.len() < netlist.net_capacity() {
            self.eps_on_net.resize(netlist.net_capacity(), Vec::new());
        }
        let bc = edit.buffer;
        let lc = netlist
            .cell(bc)
            .and_then(|c| c.lib_id())
            .and_then(|id| lib.cell(id))
            .expect("buffer is a library cell");
        self.intrinsic[bc.index()] = lc.intrinsic_delay();
        self.resistance[bc.index()] = lc.drive_resistance();
        self.input_cap[bc.index()] = lc.input_cap();
        // Re-home the moved sinks: comb cells move between comb-sink
        // lists (one occurrence per moved pin), endpoint pins re-point.
        let mut src_sinks = self.comb_sinks(edit.net).to_vec();
        let mut buf_sinks = self
            .fanout_patch
            .get(&edit.buffer_net.index())
            .cloned()
            .unwrap_or_default();
        for &(cell, _) in &edit.moved_sinks {
            if self.pos[cell.index()] != u32::MAX {
                let at = src_sinks
                    .iter()
                    .position(|&c| c == cell)
                    .expect("moved sink was on the source net");
                src_sinks.swap_remove(at);
                buf_sinks.push(cell);
            }
            let slot = self.ep_slot[cell.index()];
            if slot != u32::MAX {
                let old = self.ep_net[slot as usize];
                self.eps_on_net[old.index()].retain(|&s| s != slot);
                self.ep_net[slot as usize] = edit.buffer_net;
                self.eps_on_net[edit.buffer_net.index()].push(slot);
            }
        }
        // Insert the buffer before the earliest moved combinational sink
        // (after its driver, by construction), keeping the order valid.
        let insert_at = buf_sinks
            .iter()
            .map(|c| self.pos[c.index()] as usize)
            .min()
            .unwrap_or(self.topo.len());
        src_sinks.push(bc);
        self.fanout_patch.insert(edit.net.index(), src_sinks);
        self.fanout_patch.insert(edit.buffer_net.index(), buf_sinks);
        self.topo.insert(insert_at, bc);
        for i in insert_at..self.topo.len() {
            self.pos[self.topo[i].index()] = i as u32;
        }
    }

    /// Runs a full analysis over the prebuilt (and possibly patched)
    /// graph, skipping re-levelization. Bit-identical to
    /// [`crate::try_analyze`] on the same inputs — the post-route STA
    /// call sites use this to reuse the front-end's graph.
    pub fn analyze(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        routing: Option<&RoutingResult>,
        config: &TimingConfig,
    ) -> TimingReport {
        let ncap = netlist.net_capacity();
        let mut arrival = vec![0.0f64; ncap];
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
                .filter(|&&(cell, _)| self.input_cap[cell.index()] != 0.0)
                .map(|&(cell, _)| self.input_cap[cell.index()])
                .sum()
        };
        let net_wire_delay = |net: NetId| -> f64 {
            let len = wire_len(net);
            let wire_cap = len * params::WIRE_CAP_PER_UM;
            len * params::WIRE_RES_PER_UM * (wire_cap / 2.0 + sink_cap(net))
        };
        let net_load =
            |net: NetId| -> f64 { wire_len(net) * params::WIRE_CAP_PER_UM + sink_cap(net) };
        for (id, cell) in netlist.cells() {
            match self.launch[id.index()] {
                Launch::None => {}
                Launch::Input => {
                    if let Some(net) = cell.output() {
                        arrival[net.index()] = net_wire_delay(net);
                    }
                }
                Launch::Constant => {
                    if let Some(net) = cell.output() {
                        arrival[net.index()] = 0.0;
                    }
                }
                Launch::Sequential => {
                    let q = cell.output().expect("DFF drives Q");
                    arrival[q.index()] = self.cell_delay(id, net_load(q)) + net_wire_delay(q);
                }
            }
        }
        for &id in &self.topo {
            let cell = netlist.cell(id).expect("live cell");
            let input_arrival = cell
                .inputs()
                .iter()
                .map(|n| arrival[n.index()])
                .fold(0.0, f64::max);
            let out = cell.output().expect("combinational output");
            arrival[out.index()] =
                input_arrival + self.cell_delay(id, net_load(out)) + net_wire_delay(out);
        }
        let mut required = vec![f64::INFINITY; ncap];
        let mut endpoints: Vec<Endpoint> = Vec::with_capacity(self.ep_cells.len());
        for (slot, &ep) in self.ep_cells.iter().enumerate() {
            let cell = netlist.cell(ep).expect("live endpoint");
            let net = cell.inputs()[0];
            let req = self.ep_req(slot as u32, config);
            required[net.index()] = required[net.index()].min(req);
            endpoints.push(Endpoint {
                name: netlist.cell_name(ep).to_owned(),
                net,
                arrival: arrival[net.index()],
                slack: req - arrival[net.index()],
            });
        }
        for id in self.topo.iter().rev() {
            let cell = netlist.cell(*id).expect("live cell");
            let out = cell.output().expect("combinational output");
            let stage = self.cell_delay(*id, net_load(out)) + net_wire_delay(out);
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
        TimingReport {
            arrival,
            slack,
            endpoints,
            worst_arrival,
            config: *config,
        }
    }

    /// Exports the per-arc delay values an interchange writer (SDF)
    /// annotates: the cell (IOPATH) and net (INTERCONNECT) delays, by
    /// cell and net slot. The expressions are the very ones
    /// [`TimingGraph::analyze`] folds into arrival times on the same
    /// inputs, so an exported value is bit-identical to what the STA
    /// used — re-parsing an export and comparing against this method is
    /// an exact check, not an approximate one.
    ///
    /// `cell[i]` is `Some` for cells that drive a net through a modeled
    /// delay arc (combinational library cells and sequential launches);
    /// ports and constants stay `None`. `net[i]` is `Some` for every net
    /// some live cell drives.
    pub fn arc_delays(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        routing: Option<&RoutingResult>,
    ) -> ArcDelays {
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
                .filter(|&&(cell, _)| self.input_cap[cell.index()] != 0.0)
                .map(|&(cell, _)| self.input_cap[cell.index()])
                .sum()
        };
        let net_wire_delay = |net: NetId| -> f64 {
            let len = wire_len(net);
            let wire_cap = len * params::WIRE_CAP_PER_UM;
            len * params::WIRE_RES_PER_UM * (wire_cap / 2.0 + sink_cap(net))
        };
        let net_load =
            |net: NetId| -> f64 { wire_len(net) * params::WIRE_CAP_PER_UM + sink_cap(net) };
        let mut arcs = ArcDelays::with_capacity(netlist.cell_capacity(), netlist.net_capacity());
        for (id, cell) in netlist.cells() {
            let Some(out) = cell.output() else { continue };
            arcs.set_net(out.index(), net_wire_delay(out));
            let drives = matches!(self.launch[id.index()], Launch::Sequential)
                || self.pos.get(id.index()).is_some_and(|&p| p != u32::MAX);
            if drives {
                arcs.set_cell(id.index(), self.cell_delay(id, net_load(out)));
            }
        }
        arcs
    }
}

/// Per-arc delay export of [`TimingGraph::arc_delays`], indexed by cell
/// and net slot. Stored SoA: dense `f64` value arrays plus validity
/// bitmaps, instead of `Vec<Option<f64>>` — half the footprint (a tagged
/// `Option<f64>` is 16 bytes) and the values pack contiguously for the
/// interchange writers that stream every slot.
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

/// The incremental STA handle: a [`TimingGraph`] plus the current
/// arrival/required/slack state, per-net parasitic caches, and the
/// per-net criticality cache.
#[derive(Clone, Debug)]
pub struct IncrementalSta {
    graph: TimingGraph,
    config: TimingConfig,
    arrival: Vec<f64>,
    required: Vec<f64>,
    slack: Vec<f64>,
    /// Cached per-net parasitics (wire delay after the driver, and the
    /// driver's capacitive load), refreshed only for dirtied nets.
    wire_delay: Vec<f64>,
    load: Vec<f64>,
    worst_arrival: f64,
    analyzed: bool,
    counters: StaCounters,
    /// Per-net criticality cache: `crit[n]` is valid iff `crit_valid[n]`
    /// and the cache key (the `worst_arrival` bits it was computed
    /// against) still matches — a changed worst arrival invalidates every
    /// entry at once, a changed slack invalidates one net.
    crit: Vec<f64>,
    crit_valid: Vec<bool>,
    crit_key: u64,
}

impl IncrementalSta {
    /// Builds the timing graph for `netlist` and an empty state; call
    /// [`IncrementalSta::full_analyze`] before applying deltas.
    ///
    /// # Errors
    ///
    /// [`TimingError::Cyclic`] if the combinational netlist has a cycle.
    pub fn new(
        netlist: &Netlist,
        lib: &Library,
        config: &TimingConfig,
    ) -> Result<IncrementalSta, TimingError> {
        let graph = TimingGraph::build(netlist, lib)?;
        Ok(IncrementalSta {
            graph,
            config: *config,
            arrival: Vec::new(),
            required: Vec::new(),
            slack: Vec::new(),
            wire_delay: Vec::new(),
            load: Vec::new(),
            worst_arrival: 0.0,
            analyzed: false,
            counters: StaCounters::default(),
            crit: Vec::new(),
            crit_valid: Vec::new(),
            crit_key: 0,
        })
    }

    /// The underlying (possibly buffer-patched) graph, for graph-reuse
    /// full analyses ([`TimingGraph::analyze`]).
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// Work counters so far.
    pub fn counters(&self) -> StaCounters {
        self.counters
    }

    /// Ensures every dense per-net array covers the netlist.
    fn resize_nets(&mut self, netlist: &Netlist) {
        let ncap = netlist.net_capacity();
        self.arrival.resize(ncap, 0.0);
        self.required.resize(ncap, f64::INFINITY);
        self.slack.resize(ncap, self.config.clock_period);
        self.wire_delay.resize(ncap, 0.0);
        self.load.resize(ncap, 0.0);
        self.crit.resize(ncap, 0.0);
        self.crit_valid.resize(ncap, false);
        if self.graph.eps_on_net.len() < ncap {
            self.graph.eps_on_net.resize(ncap, Vec::new());
        }
    }

    /// Refreshes net `n`'s cached parasitics from the current geometry;
    /// true if either cached value changed bits.
    fn refresh_geometry(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        routing: Option<&RoutingResult>,
        net: NetId,
    ) -> bool {
        let len = match routing {
            Some(r) => r.net_length(net),
            None => placement.net_hpwl(netlist, net),
        };
        let sink_cap: f64 = netlist
            .sinks(net)
            .iter()
            .filter(|&&(cell, _)| self.graph.input_cap[cell.index()] != 0.0)
            .map(|&(cell, _)| self.graph.input_cap[cell.index()])
            .sum();
        let wire_cap = len * params::WIRE_CAP_PER_UM;
        let wd = len * params::WIRE_RES_PER_UM * (wire_cap / 2.0 + sink_cap);
        let ld = len * params::WIRE_CAP_PER_UM + sink_cap;
        let changed = wd.to_bits() != self.wire_delay[net.index()].to_bits()
            || ld.to_bits() != self.load[net.index()].to_bits();
        self.wire_delay[net.index()] = wd;
        self.load[net.index()] = ld;
        changed
    }

    /// The arrival a launch net seeds, from the cached parasitics.
    fn launch_arrival(&self, driver: CellId, net: NetId) -> f64 {
        match self.graph.launch[driver.index()] {
            Launch::Input => self.wire_delay[net.index()],
            Launch::Constant => 0.0,
            Launch::Sequential => {
                self.graph.cell_delay(driver, self.load[net.index()]) + self.wire_delay[net.index()]
            }
            Launch::None => unreachable!("launch_arrival on a combinational driver"),
        }
    }

    /// Full analysis from scratch (the initial state, or a reseed after
    /// the oracle disagrees). Fills every cache; bit-identical to
    /// [`crate::try_analyze`].
    pub fn full_analyze(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        routing: Option<&RoutingResult>,
    ) {
        self.resize_nets(netlist);
        for v in &mut self.arrival {
            *v = 0.0;
        }
        for v in &mut self.required {
            *v = f64::INFINITY;
        }
        for net in netlist.nets() {
            self.refresh_geometry(netlist, placement, routing, net);
        }
        for (id, cell) in netlist.cells() {
            if self.graph.launch[id.index()] == Launch::None {
                continue;
            }
            if let Some(net) = cell.output() {
                self.arrival[net.index()] = self.launch_arrival(id, net);
            }
        }
        for i in 0..self.graph.topo.len() {
            let id = self.graph.topo[i];
            let cell = netlist.cell(id).expect("live cell");
            let input_arrival = cell
                .inputs()
                .iter()
                .map(|n| self.arrival[n.index()])
                .fold(0.0, f64::max);
            let out = cell.output().expect("combinational output");
            self.arrival[out.index()] = input_arrival
                + self.graph.cell_delay(id, self.load[out.index()])
                + self.wire_delay[out.index()];
        }
        for slot in 0..self.graph.ep_cells.len() {
            let net = self.graph.ep_net[slot];
            let req = self.graph.ep_req(slot as u32, &self.config);
            self.required[net.index()] = self.required[net.index()].min(req);
        }
        for i in (0..self.graph.topo.len()).rev() {
            let id = self.graph.topo[i];
            let cell = netlist.cell(id).expect("live cell");
            let out = cell.output().expect("combinational output");
            let stage =
                self.graph.cell_delay(id, self.load[out.index()]) + self.wire_delay[out.index()];
            let up = self.required[out.index()] - stage;
            for n in cell.inputs() {
                if up < self.required[n.index()] {
                    self.required[n.index()] = up;
                }
            }
        }
        for i in 0..self.arrival.len() {
            self.slack[i] = if self.required[i].is_finite() {
                self.required[i] - self.arrival[i]
            } else {
                self.config.clock_period
            };
            self.crit_valid[i] = false;
        }
        self.worst_arrival = self
            .graph
            .ep_net
            .iter()
            .map(|n| self.arrival[n.index()])
            .fold(0.0f64, f64::max);
        self.analyzed = true;
        self.counters.full += 1;
    }

    /// Incremental update after cells moved (geometry-only delta): every
    /// net touching a moved cell is dirtied and the change event-propagates
    /// from there.
    pub fn update_moved_cells(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        routing: Option<&RoutingResult>,
        moved: &[CellId],
    ) {
        let mut dirty = Vec::new();
        for &id in moved {
            let Some(cell) = netlist.cell(id) else {
                continue;
            };
            if let Some(out) = cell.output() {
                dirty.push(out);
            }
            dirty.extend_from_slice(cell.inputs());
        }
        self.update(netlist, placement, routing, &dirty, &[]);
    }

    /// Incremental update after the given nets' geometry changed (e.g. a
    /// re-route of a subset of nets).
    pub fn update_dirty_nets(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        routing: Option<&RoutingResult>,
        nets: &[NetId],
    ) {
        self.update(netlist, placement, routing, nets, &[]);
    }

    /// Incremental update after buffer-insertion edits (structural delta):
    /// each edit is spliced into the graph, then the source and buffer
    /// nets are re-extracted and the change event-propagates.
    pub fn apply_buffers(
        &mut self,
        netlist: &Netlist,
        lib: &Library,
        placement: &Placement,
        routing: Option<&RoutingResult>,
        edits: &[BufferEdit],
    ) {
        let mut structural = Vec::with_capacity(edits.len() * 2);
        for edit in edits {
            self.graph.apply_edit(netlist, lib, edit);
            structural.push(edit.net);
            structural.push(edit.buffer_net);
        }
        self.update(netlist, placement, routing, &structural, &structural);
    }

    /// The event-driven core: refresh parasitics of `dirty` nets, seed the
    /// forward/backward frontiers (nets in `structural` are reseeded even
    /// if their parasitic bits happen to match), and propagate with
    /// bit-equality cutoff.
    fn update(
        &mut self,
        netlist: &Netlist,
        placement: &Placement,
        routing: Option<&RoutingResult>,
        dirty: &[NetId],
        structural: &[NetId],
    ) {
        assert!(self.analyzed, "full_analyze must run before updates");
        self.resize_nets(netlist);
        let ncap = self.arrival.len();
        let ccap = self.graph.pos.len();
        let mut in_fwd = vec![false; ccap];
        let mut in_bwd = vec![false; ncap];
        let mut slack_dirty = vec![false; ncap];
        // Forward frontier: combinational cells by ascending topo
        // position. Backward frontier: nets by descending driver position
        // (launch and undriven nets last: every consumer pops first).
        let mut fwd: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        let mut bwd: BinaryHeap<(i64, usize)> = BinaryHeap::new();
        let net_bwd_key = |graph: &TimingGraph, netlist: &Netlist, net: NetId| -> i64 {
            netlist
                .driver(net)
                .map(|d| graph.pos[d.index()])
                .filter(|&p| p != u32::MAX)
                .map_or(-1, i64::from)
        };

        let mut seen = vec![false; ncap];
        let push_fwd =
            |graph: &TimingGraph, heap: &mut BinaryHeap<_>, in_q: &mut [bool], cell: CellId| {
                let p = graph.pos[cell.index()];
                if p != u32::MAX && !in_q[cell.index()] {
                    in_q[cell.index()] = true;
                    heap.push(Reverse((p, cell.index())));
                }
            };
        for (i, &net) in dirty.iter().enumerate() {
            if seen[net.index()] {
                // Structural seeds ride along below even when the net was
                // already refreshed as a plain geometry seed.
                if structural.get(i).is_none_or(|&s| s != net) {
                    continue;
                }
            }
            let first_visit = !seen[net.index()];
            seen[net.index()] = true;
            let geometry_changed =
                first_visit && self.refresh_geometry(netlist, placement, routing, net);
            let forced = structural.contains(&net);
            if !geometry_changed && !forced {
                continue;
            }
            // The net's own arrival must be recomputed: through its
            // combinational driver, or directly for a launch net.
            match netlist.driver(net) {
                Some(d) if self.graph.pos[d.index()] != u32::MAX => {
                    push_fwd(&self.graph, &mut fwd, &mut in_fwd, d);
                }
                Some(d)
                    if self.graph.launch[d.index()] != Launch::None
                        && netlist.cell(d).and_then(|c| c.output()) == Some(net) =>
                {
                    let a = self.launch_arrival(d, net);
                    if a.to_bits() != self.arrival[net.index()].to_bits() {
                        self.arrival[net.index()] = a;
                        slack_dirty[net.index()] = true;
                        for &s in self.graph.comb_sinks(net) {
                            push_fwd(&self.graph, &mut fwd, &mut in_fwd, s);
                        }
                    }
                }
                _ => {}
            }
            // Changed parasitics change the driver's stage delay, so the
            // required times of the driver's inputs must be recomputed; a
            // changed sink set changes the net's own consumer list.
            if let Some(d) = netlist.driver(net) {
                if self.graph.pos[d.index()] != u32::MAX {
                    for &n in netlist.cell(d).expect("live driver").inputs() {
                        if !in_bwd[n.index()] {
                            in_bwd[n.index()] = true;
                            bwd.push((net_bwd_key(&self.graph, netlist, n), n.index()));
                        }
                    }
                }
            }
            if forced && !in_bwd[net.index()] {
                in_bwd[net.index()] = true;
                bwd.push((net_bwd_key(&self.graph, netlist, net), net.index()));
            }
            // Structural seeds: moved sinks read a different net now.
            if forced {
                for &s in self.graph.comb_sinks(net) {
                    push_fwd(&self.graph, &mut fwd, &mut in_fwd, s);
                }
            }
        }

        // Forward arrival propagation.
        while let Some(Reverse((_, ci))) = fwd.pop() {
            in_fwd[ci] = false;
            let id = CellId::from_index(ci);
            let cell = netlist.cell(id).expect("live cell");
            let input_arrival = cell
                .inputs()
                .iter()
                .map(|n| self.arrival[n.index()])
                .fold(0.0, f64::max);
            let out = cell.output().expect("combinational output");
            let a = input_arrival
                + self.graph.cell_delay(id, self.load[out.index()])
                + self.wire_delay[out.index()];
            self.counters.nodes_touched += 1;
            if a.to_bits() != self.arrival[out.index()].to_bits() {
                self.arrival[out.index()] = a;
                slack_dirty[out.index()] = true;
                for &s in self.graph.comb_sinks(out) {
                    push_fwd(&self.graph, &mut fwd, &mut in_fwd, s);
                }
            }
        }

        // Backward required propagation: recompute each popped net's
        // required time from scratch (endpoint constraints first, then
        // every combinational consumer), exactly as the full pass folds.
        while let Some((_, ni)) = bwd.pop() {
            in_bwd[ni] = false;
            let net = NetId::from_index(ni);
            let mut r = f64::INFINITY;
            for &slot in &self.graph.eps_on_net[ni] {
                r = r.min(self.graph.ep_req(slot, &self.config));
            }
            for &c in self.graph.comb_sinks(net) {
                let out = netlist
                    .cell(c)
                    .and_then(|cc| cc.output())
                    .expect("combinational output");
                let stage =
                    self.graph.cell_delay(c, self.load[out.index()]) + self.wire_delay[out.index()];
                let up = self.required[out.index()] - stage;
                if up < r {
                    r = up;
                }
            }
            self.counters.nodes_touched += 1;
            if r.to_bits() != self.required[ni].to_bits() {
                self.required[ni] = r;
                slack_dirty[ni] = true;
                if let Some(d) = netlist.driver(net) {
                    if self.graph.pos[d.index()] != u32::MAX {
                        for &n in netlist.cell(d).expect("live driver").inputs() {
                            if !in_bwd[n.index()] {
                                in_bwd[n.index()] = true;
                                bwd.push((net_bwd_key(&self.graph, netlist, n), n.index()));
                            }
                        }
                    }
                }
            }
        }

        for i in 0..ncap {
            if !slack_dirty[i] && !seen[i] {
                continue;
            }
            let s = if self.required[i].is_finite() {
                self.required[i] - self.arrival[i]
            } else {
                self.config.clock_period
            };
            if s.to_bits() != self.slack[i].to_bits() {
                self.slack[i] = s;
                self.crit_valid[i] = false;
            }
        }
        self.worst_arrival = self
            .graph
            .ep_net
            .iter()
            .map(|n| self.arrival[n.index()])
            .fold(0.0f64, f64::max);
        self.counters.incremental += 1;
    }

    /// The worst endpoint slack of the current state, ps.
    pub fn worst_slack(&self) -> f64 {
        assert!(self.analyzed, "full_analyze must run before queries");
        self.graph
            .ep_net
            .iter()
            .enumerate()
            .map(|(slot, n)| self.graph.ep_req(slot as u32, &self.config) - self.arrival[n.index()])
            .fold(f64::INFINITY, f64::min)
            .min(self.config.clock_period)
    }

    /// Per-net criticalities into a caller-provided buffer, served from
    /// the per-net cache: only entries invalidated since the last query
    /// (changed slack, or a changed worst arrival, which re-keys the
    /// whole cache) are recomputed. Bit-identical to
    /// [`TimingReport::net_criticalities`].
    pub fn net_criticalities_into(&mut self, out: &mut Vec<f64>) {
        assert!(self.analyzed, "full_analyze must run before queries");
        let key = self.worst_arrival.to_bits();
        if key != self.crit_key {
            self.crit_key = key;
            for v in &mut self.crit_valid {
                *v = false;
            }
        }
        let d = self.worst_arrival.max(1e-9);
        for i in 0..self.slack.len() {
            if !self.crit_valid[i] {
                let c = 1.0 - self.slack[i].max(0.0) / (d + self.config.clock_period - d).max(d);
                self.crit[i] = c.clamp(0.0, 1.0);
                self.crit_valid[i] = true;
            }
        }
        out.clear();
        out.extend_from_slice(&self.crit);
    }

    /// Per-cell criticalities into a caller-provided buffer (the maximum
    /// over the nets each cell touches). Bit-identical to
    /// [`TimingReport::cell_criticalities`].
    pub fn cell_criticalities_into(&mut self, netlist: &Netlist, out: &mut Vec<f64>) {
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

    /// Materializes the current state as a [`TimingReport`],
    /// bit-identical to a fresh [`crate::try_analyze`] on the same
    /// netlist and geometry (counted as a served incremental query).
    pub fn report(&self, netlist: &Netlist) -> TimingReport {
        assert!(self.analyzed, "full_analyze must run before queries");
        let mut endpoints: Vec<Endpoint> = Vec::with_capacity(self.graph.ep_cells.len());
        for (slot, &cell) in self.graph.ep_cells.iter().enumerate() {
            let net = self.graph.ep_net[slot];
            let req = self.graph.ep_req(slot as u32, &self.config);
            endpoints.push(Endpoint {
                name: netlist.cell_name(cell).to_owned(),
                net,
                arrival: self.arrival[net.index()],
                slack: req - self.arrival[net.index()],
            });
        }
        endpoints.sort_by(|a, b| a.slack.total_cmp(&b.slack));
        TimingReport {
            arrival: self.arrival.clone(),
            slack: self.slack.clone(),
            endpoints,
            worst_arrival: self.worst_arrival,
            config: self.config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_analyze;
    use vpga_core::PlbArchitecture;
    use vpga_place::PlaceConfig;

    fn assert_reports_equal(a: &TimingReport, b: &TimingReport, what: &str) {
        assert_eq!(a.arrival.len(), b.arrival.len(), "{what}: arrival len");
        for i in 0..a.arrival.len() {
            assert_eq!(
                a.arrival[i].to_bits(),
                b.arrival[i].to_bits(),
                "{what}: arrival bits on net {i}"
            );
            assert_eq!(
                a.slack[i].to_bits(),
                b.slack[i].to_bits(),
                "{what}: slack bits on net {i}"
            );
        }
        assert_eq!(a.endpoints.len(), b.endpoints.len(), "{what}: endpoints");
        for (x, y) in a.endpoints.iter().zip(&b.endpoints) {
            assert_eq!(x.name, y.name, "{what}: endpoint order");
            assert_eq!(x.net, y.net, "{what}: endpoint net");
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits(), "{what}");
            assert_eq!(x.slack.to_bits(), y.slack.to_bits(), "{what}");
        }
        assert_eq!(
            a.worst_arrival.to_bits(),
            b.worst_arrival.to_bits(),
            "{what}: worst arrival"
        );
        let (ca, cb) = (a.net_criticalities(), b.net_criticalities());
        for i in 0..ca.len() {
            assert_eq!(ca[i].to_bits(), cb[i].to_bits(), "{what}: criticality {i}");
        }
    }

    /// A hand-built 4-layer mesh on the granular library: 8 PIs feed four
    /// rings of ND3 gates with a DFF cut after the second layer, ending in
    /// 8 POs — wide enough that an event-driven update has quiescent
    /// regions to skip.
    fn mapped_switch() -> (Netlist, PlbArchitecture, Placement) {
        let arch = PlbArchitecture::granular();
        let lib = arch.library().clone();
        let mut n = Netlist::new("mesh");
        let mut layer: Vec<_> = (0..8).map(|i| n.add_input(format!("i{i}"))).collect();
        for l in 0..4 {
            let len = layer.len();
            let mut next = Vec::with_capacity(len);
            for j in 0..len {
                let ins = [layer[j], layer[(j + 1) % len], layer[(j + 2) % len]];
                let g = n
                    .add_lib_cell(format!("g{l}_{j}"), &lib, "ND3", &ins)
                    .unwrap();
                next.push(g);
            }
            if l == 1 {
                next = next
                    .iter()
                    .enumerate()
                    .map(|(j, &g)| n.add_lib_cell(format!("ff{j}"), &lib, "DFF", &[g]).unwrap())
                    .collect();
            }
            layer = next;
        }
        for (j, &w) in layer.iter().enumerate() {
            n.add_output(format!("y{j}"), w);
        }
        let placement = vpga_place::place(&n, arch.library(), &PlaceConfig::default());
        (n, arch, placement)
    }

    #[test]
    fn full_analyze_matches_the_oracle() {
        let (netlist, arch, placement) = mapped_switch();
        let config = TimingConfig::default();
        let mut sta = IncrementalSta::new(&netlist, arch.library(), &config).unwrap();
        sta.full_analyze(&netlist, &placement, None);
        let oracle = try_analyze(&netlist, arch.library(), &placement, None, &config).unwrap();
        assert_reports_equal(&sta.report(&netlist), &oracle, "full");
        assert_eq!(sta.counters().full, 1);
    }

    #[test]
    fn graph_analyze_matches_the_oracle_with_routing() {
        let (netlist, arch, placement) = mapped_switch();
        let config = TimingConfig::default();
        let routing = vpga_route::route(&netlist, &placement, &vpga_route::RouteConfig::default());
        let graph = TimingGraph::build(&netlist, arch.library()).unwrap();
        let fast = graph.analyze(&netlist, &placement, Some(&routing), &config);
        let oracle = try_analyze(
            &netlist,
            arch.library(),
            &placement,
            Some(&routing),
            &config,
        )
        .unwrap();
        assert_reports_equal(&fast, &oracle, "graph-reuse");
    }

    #[test]
    fn moved_cell_update_matches_the_oracle_and_cuts_off_early() {
        let (netlist, arch, mut placement) = mapped_switch();
        let config = TimingConfig::default();
        let mut sta = IncrementalSta::new(&netlist, arch.library(), &config).unwrap();
        sta.full_analyze(&netlist, &placement, None);
        let victim = netlist
            .cells()
            .find(|(_, c)| c.lib_id().is_some())
            .map(|(id, _)| id)
            .unwrap();
        let (x, y) = placement.position(victim).unwrap();
        placement.set_position(victim, x + 3.0, y + 3.0);
        sta.update_moved_cells(&netlist, &placement, None, &[victim]);
        let oracle = try_analyze(&netlist, arch.library(), &placement, None, &config).unwrap();
        assert_reports_equal(&sta.report(&netlist), &oracle, "moved cell");
        // Event-driven: the single move must not touch the whole graph.
        let total = 2 * (netlist.num_nets() as u64 + netlist.num_cells() as u64);
        assert!(
            sta.counters().nodes_touched < total,
            "touched {} of {total} possible nodes",
            sta.counters().nodes_touched
        );
    }

    #[test]
    fn noop_update_touches_almost_nothing() {
        let (netlist, arch, placement) = mapped_switch();
        let config = TimingConfig::default();
        let mut sta = IncrementalSta::new(&netlist, arch.library(), &config).unwrap();
        sta.full_analyze(&netlist, &placement, None);
        let victim = netlist
            .cells()
            .find(|(_, c)| c.lib_id().is_some())
            .map(|(id, _)| id)
            .unwrap();
        sta.update_moved_cells(&netlist, &placement, None, &[victim]);
        assert_eq!(
            sta.counters().nodes_touched,
            0,
            "unchanged geometry must cut off at the seeds"
        );
    }

    #[test]
    fn buffer_edit_matches_the_oracle() {
        let lib = vpga_netlist::library::generic::library();
        let mut n = Netlist::new("fan");
        let a = n.add_input("a");
        let src = n.add_lib_cell("src", &lib, "INV", &[a]).unwrap();
        for i in 0..20 {
            let s = n
                .add_lib_cell(format!("s{i}"), &lib, "INV", &[src])
                .unwrap();
            n.add_output(format!("y{i}"), s);
        }
        let mut placement = vpga_place::place(&n, &lib, &PlaceConfig::default());
        let config = TimingConfig::default();
        let mut sta = IncrementalSta::new(&n, &lib, &config).unwrap();
        sta.full_analyze(&n, &placement, None);
        let (_, edits) =
            vpga_place::insert_buffers_traced(&mut n, &lib, &mut placement, 8, 1e9).unwrap();
        assert!(!edits.is_empty());
        sta.apply_buffers(&n, &lib, &placement, None, &edits);
        let oracle = try_analyze(&n, &lib, &placement, None, &config).unwrap();
        assert_reports_equal(&sta.report(&n), &oracle, "buffered");
    }

    #[test]
    fn criticality_cache_survives_and_invalidates() {
        let (netlist, arch, mut placement) = mapped_switch();
        let config = TimingConfig::default();
        let mut sta = IncrementalSta::new(&netlist, arch.library(), &config).unwrap();
        sta.full_analyze(&netlist, &placement, None);
        let mut first = Vec::new();
        sta.net_criticalities_into(&mut first);
        let mut again = Vec::new();
        sta.net_criticalities_into(&mut again);
        assert_eq!(first, again, "cache-served query must not drift");
        let victim = netlist
            .cells()
            .find(|(_, c)| c.lib_id().is_some())
            .map(|(id, _)| id)
            .unwrap();
        let (x, y) = placement.position(victim).unwrap();
        placement.set_position(victim, x + 25.0, y + 25.0);
        sta.update_moved_cells(&netlist, &placement, None, &[victim]);
        let mut after = Vec::new();
        sta.net_criticalities_into(&mut after);
        let oracle = try_analyze(&netlist, arch.library(), &placement, None, &config).unwrap();
        let want = oracle.net_criticalities();
        for i in 0..want.len() {
            assert_eq!(after[i].to_bits(), want[i].to_bits(), "net {i}");
        }
        let mut cells = Vec::new();
        sta.cell_criticalities_into(&netlist, &mut cells);
        let want_cells = oracle.cell_criticalities(&netlist);
        for i in 0..want_cells.len() {
            assert_eq!(cells[i].to_bits(), want_cells[i].to_bits(), "cell {i}");
        }
    }
}
