//! Global routing over the die grid — the "ASIC-style custom global and
//! detailed routing on the regular array of PLBs" of §3.1.
//!
//! A negotiated-congestion (PathFinder-style) router over a uniform tile
//! grid: edge costs combine a base cost, a present-congestion penalty, and
//! an accumulated history penalty, iterated until no edge exceeds its
//! channel capacity. Per-net routed wirelengths feed the Elmore wire
//! delays of `vpga-timing`; this is the post-layout extraction step of the
//! paper's flow.
//!
//! Two-pin connections are A*-routed driver→sink with free reuse of the
//! net's own earlier branches, so multi-fanout nets form Steiner-like
//! trees.
//!
//! Negotiation is *incremental* by default: the first iteration routes
//! every net, and later iterations rip up and re-route only the *dirty*
//! nets — those whose current path crosses an over-capacity edge. Clean
//! nets keep both their routes and their occupancy contribution, so each
//! re-route negotiates against the full congestion picture (strictly more
//! context than a fresh full rip-up gives). Net order is fixed by the job
//! list, no randomness is involved, and the A* scratch state is
//! epoch-invalidated rather than reallocated, so results are bit-for-bit
//! reproducible across runs and worker counts. Set
//! [`RouteConfig::incremental`] to `false` for the classic
//! full-rip-up-every-iteration schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BinaryHeap, HashSet};

use vpga_netlist::{CellKind, NetId, Netlist};
use vpga_place::Placement;

/// Recoverable routing failures surfaced by [`try_route`]. The panicking
/// [`route`] entry point is a thin wrapper that aborts on these.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// `channel_capacity` of zero — no net can ever be legal.
    InvalidCapacity,
    /// A net's sink tile was unreachable from its source (disconnected
    /// routing graph).
    Unroutable {
        /// The net that failed.
        net: NetId,
        /// The unreachable sink tile `(col, row)`.
        sink: (usize, usize),
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::InvalidCapacity => write!(f, "channel capacity must be positive"),
            RouteError::Unroutable { net, sink } => {
                write!(f, "net {net} cannot reach sink tile {sink:?}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Router tunables.
#[derive(Clone, Debug)]
pub struct RouteConfig {
    /// Routing tracks per tile boundary, per direction.
    pub channel_capacity: u32,
    /// Maximum negotiation iterations.
    pub max_iterations: usize,
    /// Tile edge length, µm. `None` derives a grid of roughly
    /// `target_tiles` tiles from the die.
    pub tile_size: Option<f64>,
    /// Grid sizing target when `tile_size` is `None`.
    pub target_tiles: usize,
    /// Present-congestion penalty factor.
    pub present_factor: f64,
    /// History penalty increment per overflowed edge per iteration.
    pub history_increment: f64,
    /// Retain the per-net tile paths in the result (costs memory on large
    /// designs; needed for physical hand-off and route inspection).
    pub keep_routes: bool,
    /// Dirty-net negotiation: after the first iteration, rip up and
    /// re-route only nets crossing over-capacity edges (`true`, default).
    /// `false` restores the textbook full rip-up of every net each
    /// iteration.
    pub incremental: bool,
}

impl Default for RouteConfig {
    fn default() -> RouteConfig {
        RouteConfig {
            channel_capacity: 16,
            max_iterations: 8,
            tile_size: None,
            target_tiles: 4096,
            present_factor: 0.6,
            history_increment: 0.4,
            keep_routes: false,
            incremental: true,
        }
    }
}

/// Result of a routing run: per-net wirelengths plus congestion statistics.
#[derive(Clone, Debug)]
pub struct RoutingResult {
    net_length: Vec<f64>,
    total_length: f64,
    overflow_edges: usize,
    iterations_used: usize,
    max_edge_load: u32,
    tile_size: f64,
    grid_dims: (usize, usize),
    nets_routed: usize,
    reroutes_per_iter: Vec<usize>,
    routes: Option<std::collections::HashMap<NetId, Vec<RouteSegment>>>,
}

/// One routed hop between two adjacent `(col, row)` tiles.
pub type RouteSegment = ((usize, usize), (usize, usize));

impl RoutingResult {
    /// Routed wirelength of a net, µm (0 for unrouted or local nets).
    pub fn net_length(&self, net: NetId) -> f64 {
        self.net_length.get(net.index()).copied().unwrap_or(0.0)
    }

    /// Sum of all routed wirelengths, µm.
    pub fn total_length(&self) -> f64 {
        self.total_length
    }

    /// Edges still above capacity after the final iteration (0 = legal).
    pub fn overflow_edges(&self) -> usize {
        self.overflow_edges
    }

    /// Negotiation iterations consumed.
    pub fn iterations_used(&self) -> usize {
        self.iterations_used
    }

    /// Peak edge load observed in the final routing.
    pub fn max_edge_load(&self) -> u32 {
        self.max_edge_load
    }

    /// The tile edge length used, µm.
    pub fn tile_size(&self) -> f64 {
        self.tile_size
    }

    /// The routing-grid dimensions (cols, rows).
    pub fn grid_dims(&self) -> (usize, usize) {
        self.grid_dims
    }

    /// Routable nets (≥2 placed pins spanning ≥2 tiles).
    pub fn nets_routed(&self) -> usize {
        self.nets_routed
    }

    /// Nets (re)routed in each negotiation iteration. The first entry is
    /// always [`RoutingResult::nets_routed`]; with dirty-net negotiation
    /// the later entries shrink to just the congested subset.
    pub fn reroutes_per_iteration(&self) -> &[usize] {
        &self.reroutes_per_iter
    }

    /// Total net routings summed over all iterations — the work the
    /// negotiation actually performed (full rip-up pays
    /// `nets × iterations`).
    pub fn total_reroutes(&self) -> usize {
        self.reroutes_per_iter.iter().sum()
    }

    /// The routed tile-to-tile segments of a net, if
    /// [`RouteConfig::keep_routes`] was set. Segments are in discovery
    /// order; each is a pair of adjacent `(col, row)` tiles.
    pub fn net_route(&self, net: NetId) -> Option<&[RouteSegment]> {
        self.routes.as_ref()?.get(&net).map(Vec::as_slice)
    }
}

struct Grid {
    cols: usize,
    rows: usize,
    tile: f64,
    x0: f64,
    y0: f64,
}

impl Grid {
    /// Edge indexing: horizontal edges first (between (c,r) and (c+1,r)),
    /// then vertical ones (between (c,r) and (c,r+1)).
    fn num_edges(&self) -> usize {
        (self.cols.saturating_sub(1)) * self.rows + self.cols * (self.rows.saturating_sub(1))
    }

    fn h_edge(&self, c: usize, r: usize) -> usize {
        r * (self.cols - 1) + c
    }

    fn v_edge(&self, c: usize, r: usize) -> usize {
        (self.cols - 1) * self.rows + r * self.cols + c
    }

    /// The two adjacent tiles an edge index connects.
    fn edge_endpoints(&self, edge: usize) -> ((usize, usize), (usize, usize)) {
        let h_count = (self.cols - 1) * self.rows;
        if edge < h_count {
            let r = edge / (self.cols - 1);
            let c = edge % (self.cols - 1);
            ((c, r), (c + 1, r))
        } else {
            let v = edge - h_count;
            let r = v / self.cols;
            let c = v % self.cols;
            ((c, r), (c, r + 1))
        }
    }

    fn tile_of(&self, x: f64, y: f64) -> (usize, usize) {
        let c = (((x - self.x0) / self.tile).floor().max(0.0) as usize).min(self.cols - 1);
        let r = (((y - self.y0) / self.tile).floor().max(0.0) as usize).min(self.rows - 1);
        (c, r)
    }

    /// Flattens the tile adjacency into a CSR [`Adjacency`], preserving
    /// the historical neighbor order (east, west, north, south) so the A*
    /// heap insertion sequence — and therefore every tie-break — is
    /// unchanged. Built once per routing run; the search loop then walks
    /// flat arrays instead of allocating a neighbor `Vec` per tile visit.
    fn adjacency(&self) -> Adjacency {
        let n = self.cols * self.rows;
        let mut off = Vec::with_capacity(n + 1);
        let mut tile: Vec<(u32, u32)> = Vec::with_capacity(4 * n);
        let mut edge: Vec<u32> = Vec::with_capacity(4 * n);
        off.push(0u32);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c + 1 < self.cols {
                    tile.push((c as u32 + 1, r as u32));
                    edge.push(self.h_edge(c, r) as u32);
                }
                if c > 0 {
                    tile.push((c as u32 - 1, r as u32));
                    edge.push(self.h_edge(c - 1, r) as u32);
                }
                if r + 1 < self.rows {
                    tile.push((c as u32, r as u32 + 1));
                    edge.push(self.v_edge(c, r) as u32);
                }
                if r > 0 {
                    tile.push((c as u32, r as u32 - 1));
                    edge.push(self.v_edge(c, r - 1) as u32);
                }
                off.push(tile.len() as u32);
            }
        }
        Adjacency { off, tile, edge }
    }
}

/// The routing graph's adjacency in CSR form, SoA: row `t` (a flat tile
/// index) spans `off[t]..off[t+1]` of the parallel `tile`/`edge` arrays.
struct Adjacency {
    off: Vec<u32>,
    /// Neighbor tile `(col, row)` per entry.
    tile: Vec<(u32, u32)>,
    /// Crossed edge index per entry.
    edge: Vec<u32>,
}

#[derive(PartialEq)]
struct HeapEntry {
    priority: f64,
    cost: f64,
    tile: (usize, usize),
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on priority.
        other.priority.total_cmp(&self.priority)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable A* state: per-tile cost/parent tables and the per-net edge
/// ownership marks, all invalidated by bumping an epoch counter instead of
/// clearing — one allocation per routing run, none per search.
struct Scratch {
    /// Best-known cost per tile, valid only where `stamp == epoch`.
    best: Vec<f64>,
    /// Parent tile + incoming edge per tile, valid where `stamp == epoch`.
    from: Vec<((usize, usize), usize)>,
    /// Per-tile epoch stamp for `best`/`from`.
    stamp: Vec<u64>,
    /// Per-edge epoch mark: `own_mark[e] == net_epoch` ⇔ edge `e` belongs
    /// to the net currently being routed.
    own_mark: Vec<u64>,
    /// Search epoch (bumped per A* call).
    epoch: u64,
    /// Ownership epoch (bumped per net).
    net_epoch: u64,
    /// The search frontier, drained empty by every call.
    heap: BinaryHeap<HeapEntry>,
}

impl Scratch {
    fn new(n_tiles: usize, n_edges: usize) -> Scratch {
        Scratch {
            best: vec![f64::INFINITY; n_tiles],
            from: vec![((0, 0), 0); n_tiles],
            stamp: vec![0; n_tiles],
            own_mark: vec![0; n_edges],
            epoch: 0,
            net_epoch: 0,
            heap: BinaryHeap::new(),
        }
    }
}

/// Routes every multi-tile net of the placed netlist.
///
/// # Panics
///
/// Panics if the placement lacks positions for placed library cells (run
/// placement first) or if the config is degenerate.
pub fn route(netlist: &Netlist, placement: &Placement, config: &RouteConfig) -> RoutingResult {
    try_route(netlist, placement, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Non-panicking [`route`]: degenerate configs and unreachable sinks come
/// back as a [`RouteError`] instead of aborting the worker.
///
/// # Errors
///
/// * [`RouteError::InvalidCapacity`] if `config.channel_capacity` is zero,
/// * [`RouteError::Unroutable`] if a sink tile cannot be reached.
pub fn try_route(
    netlist: &Netlist,
    placement: &Placement,
    config: &RouteConfig,
) -> Result<RoutingResult, RouteError> {
    if config.channel_capacity == 0 {
        return Err(RouteError::InvalidCapacity);
    }
    let die = placement.die();
    let tile = config.tile_size.unwrap_or_else(|| {
        (die.area() / config.target_tiles.max(1) as f64)
            .sqrt()
            .max(1e-3)
    });
    let grid = Grid {
        cols: ((die.width() / tile).ceil() as usize).max(1),
        rows: ((die.height() / tile).ceil() as usize).max(1),
        tile,
        x0: die.x0,
        y0: die.y0,
    };
    // Collect routable nets: ≥2 placed pins spanning ≥2 tiles; skip
    // constant-driven nets.
    struct Job {
        net: NetId,
        source: (usize, usize),
        sinks: Vec<(usize, usize)>,
    }
    let mut jobs: Vec<Job> = Vec::new();
    let mut net_length = vec![0.0f64; netlist.net_capacity()];
    let mut seen_sinks: HashSet<(usize, usize)> = HashSet::new();
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
        let source = grid.tile_of(dx, dy);
        // Deduplicate sink tiles in first-occurrence order; set-based
        // membership keeps this O(fanout) instead of O(fanout²).
        seen_sinks.clear();
        let mut sinks: Vec<(usize, usize)> = Vec::new();
        for &(cell, _) in netlist.sinks(net) {
            if let Some((x, y)) = placement.position(cell) {
                let t = grid.tile_of(x, y);
                if t != source && seen_sinks.insert(t) {
                    sinks.push(t);
                }
            }
        }
        if !sinks.is_empty() {
            jobs.push(Job { net, source, sinks });
        }
    }
    // Negotiated congestion loop. Iteration 1 routes everything; later
    // iterations rip up only the dirty nets (paths crossing over-capacity
    // edges) unless `config.incremental` is off.
    let n_edges = grid.num_edges();
    let n_tiles = grid.cols * grid.rows;
    let adj = grid.adjacency();
    let mut history = vec![0.0f64; n_edges];
    let mut occupancy = vec![0u32; n_edges];
    let mut net_edges: Vec<Vec<usize>> = (0..jobs.len()).map(|_| Vec::new()).collect();
    let mut scratch = Scratch::new(n_tiles, n_edges);
    let mut own: Vec<usize> = Vec::new();
    let mut dirty: Vec<usize> = (0..jobs.len()).collect();
    let mut reroutes_per_iter: Vec<usize> = Vec::new();
    let mut iterations_used = 0;
    for iter in 0..config.max_iterations.max(1) {
        iterations_used = iter + 1;
        reroutes_per_iter.push(dirty.len());
        // Rip up every dirty net first, then re-route them in job order,
        // so each search negotiates against all retained routes plus the
        // dirty nets already re-routed this pass.
        for &ji in &dirty {
            for &e in &net_edges[ji] {
                occupancy[e] -= 1;
            }
        }
        for &ji in &dirty {
            let job = &jobs[ji];
            scratch.net_epoch += 1;
            own.clear();
            for &sink in &job.sinks {
                let reached = astar(
                    &grid,
                    &adj,
                    job.source,
                    sink,
                    &occupancy,
                    &history,
                    &mut scratch,
                    &mut own,
                    config,
                );
                if !reached {
                    return Err(RouteError::Unroutable { net: job.net, sink });
                }
            }
            for &e in &own {
                occupancy[e] += 1;
            }
            net_edges[ji].clear();
            net_edges[ji].extend_from_slice(&own);
        }
        // Overflow check and history update.
        let mut overflow = 0usize;
        for (e, &occ) in occupancy.iter().enumerate() {
            if occ > config.channel_capacity {
                overflow += 1;
                history[e] += config.history_increment * (occ - config.channel_capacity) as f64;
            }
        }
        if overflow == 0 {
            break;
        }
        if config.incremental {
            dirty = (0..jobs.len())
                .filter(|&ji| {
                    net_edges[ji]
                        .iter()
                        .any(|&e| occupancy[e] > config.channel_capacity)
                })
                .collect();
            if dirty.is_empty() {
                break;
            }
        } else {
            dirty = (0..jobs.len()).collect();
        }
    }
    // Final statistics.
    let mut total = 0.0;
    let mut routes = config.keep_routes.then(std::collections::HashMap::new);
    for (job, edges) in jobs.iter().zip(&net_edges) {
        let len = edges.len() as f64 * grid.tile;
        net_length[job.net.index()] = len;
        total += len;
        if let Some(routes) = routes.as_mut() {
            let segments: Vec<((usize, usize), (usize, usize))> =
                edges.iter().map(|&e| grid.edge_endpoints(e)).collect();
            routes.insert(job.net, segments);
        }
    }
    let overflow_edges = occupancy
        .iter()
        .filter(|&&o| o > config.channel_capacity)
        .count();
    Ok(RoutingResult {
        net_length,
        total_length: total,
        overflow_edges,
        iterations_used,
        max_edge_load: occupancy.iter().copied().max().unwrap_or(0),
        tile_size: grid.tile,
        grid_dims: (grid.cols, grid.rows),
        nets_routed: jobs.len(),
        reroutes_per_iter,
        routes,
    })
}

/// A* from any tile already owned by the net (starting at `source`) to
/// `sink`; appends the path's new edges to `own` and marks them owned.
/// All search state lives in `scratch`, invalidated by epoch bump —
/// no per-call allocation. Returns `false` if the sink was unreachable
/// (the net's tree is left unchanged in that case).
///
/// Kept out of line: with `try_route` as its only caller the compiler
/// inlines it, and the inlined search routed the 8-port × 64-bit network
/// switch about 5 % slower (median of nine alternating in-process runs).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn astar(
    grid: &Grid,
    adj: &Adjacency,
    source: (usize, usize),
    sink: (usize, usize),
    occupancy: &[u32],
    history: &[f64],
    scratch: &mut Scratch,
    own: &mut Vec<usize>,
    config: &RouteConfig,
) -> bool {
    let idx = |(c, r): (usize, usize)| r * grid.cols + c;
    scratch.epoch += 1;
    let epoch = scratch.epoch;
    scratch.heap.clear();
    let h = |(c, r): (usize, usize)| -> f64 { (c.abs_diff(sink.0) + r.abs_diff(sink.1)) as f64 };
    scratch.best[idx(source)] = 0.0;
    scratch.stamp[idx(source)] = epoch;
    scratch.heap.push(HeapEntry {
        priority: h(source),
        cost: 0.0,
        tile: source,
    });
    while let Some(entry) = scratch.heap.pop() {
        if entry.cost > scratch.best[idx(entry.tile)] {
            continue;
        }
        if entry.tile == sink {
            break;
        }
        let lo = adj.off[idx(entry.tile)] as usize;
        let hi = adj.off[idx(entry.tile) + 1] as usize;
        for a in lo..hi {
            let edge = adj.edge[a] as usize;
            let (nc, nr) = adj.tile[a];
            let (nc, nr) = (nc as usize, nr as usize);
            let edge_cost = if scratch.own_mark[edge] == scratch.net_epoch {
                0.0 // reuse of the net's own tree is free
            } else {
                let over = occupancy[edge] as f64 + 1.0 - config.channel_capacity as f64;
                1.0 + config.present_factor * over.max(0.0) + history[edge]
            };
            let cost = entry.cost + edge_cost;
            let t = (nc, nr);
            if scratch.stamp[idx(t)] != epoch || cost < scratch.best[idx(t)] {
                scratch.best[idx(t)] = cost;
                scratch.stamp[idx(t)] = epoch;
                scratch.from[idx(t)] = (entry.tile, edge);
                scratch.heap.push(HeapEntry {
                    priority: cost + h(t),
                    cost,
                    tile: t,
                });
            }
        }
    }
    // An unvisited sink means the search exhausted the frontier without
    // reaching it: report failure rather than silently keeping a partial
    // tree (the caller surfaces this as `RouteError::Unroutable`).
    if sink != source && scratch.stamp[idx(sink)] != epoch {
        return false;
    }
    // Walk back and collect the path's new edges into the net's tree.
    let mut cur = sink;
    while cur != source {
        if scratch.stamp[idx(cur)] != epoch {
            break;
        }
        let (prev, edge) = scratch.from[idx(cur)];
        if scratch.own_mark[edge] != scratch.net_epoch {
            scratch.own_mark[edge] = scratch.net_epoch;
            own.push(edge);
        }
        cur = prev;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpga_netlist::library::generic;
    use vpga_place::PlaceConfig;

    fn routed_chain(n_cells: usize, cfg: &RouteConfig) -> (Netlist, RoutingResult) {
        let lib = generic::library();
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("a");
        for i in 0..n_cells {
            cur = nl
                .add_lib_cell(format!("i{i}"), &lib, "INV", &[cur])
                .unwrap();
        }
        nl.add_output("y", cur);
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let r = route(&nl, &p, cfg);
        (nl, r)
    }

    #[test]
    fn routes_are_produced_and_legal() {
        let (nl, r) = routed_chain(30, &RouteConfig::default());
        assert_eq!(r.overflow_edges(), 0);
        assert!(r.total_length() > 0.0);
        // Each inter-tile net has positive length.
        let lengths: Vec<f64> = nl.nets().map(|n| r.net_length(n)).collect();
        assert!(lengths.iter().any(|&l| l > 0.0));
    }

    #[test]
    fn manhattan_lower_bound_holds() {
        // A single 2-pin net: routed length ≥ tile-quantized manhattan
        // distance between the endpoints.
        let lib = generic::library();
        let mut nl = Netlist::new("pair");
        let a = nl.add_input("a");
        let g = nl.add_lib_cell("g", &lib, "INV", &[a]).unwrap();
        nl.add_output("y", g);
        let mut p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let gc = nl.cell_by_name("g").unwrap();
        let die = p.die();
        p.set_position(gc, die.x1 - 0.01, die.y1 - 0.01);
        let cfg = RouteConfig {
            tile_size: Some(die.width() / 8.0),
            ..RouteConfig::default()
        };
        let r = route(&nl, &p, &cfg);
        let a_net = nl.cell(nl.inputs()[0]).unwrap().output().unwrap();
        let (ax, ay) = p.position(nl.inputs()[0]).unwrap();
        let (gx, gy) = p.position(gc).unwrap();
        let manhattan = (ax - gx).abs() + (ay - gy).abs();
        assert!(
            r.net_length(a_net) + 2.0 * r.tile_size() >= manhattan,
            "routed {} vs manhattan {}",
            r.net_length(a_net),
            manhattan
        );
    }

    /// A deliberately congested instance: one input fanning out to many
    /// cells over a coarse grid with capacity 1.
    fn congested() -> (Netlist, Placement, RouteConfig) {
        let lib = generic::library();
        let mut nl = Netlist::new("cong");
        let a = nl.add_input("a");
        for i in 0..6 {
            let g = nl.add_lib_cell(format!("g{i}"), &lib, "INV", &[a]).unwrap();
            nl.add_output(format!("y{i}"), g);
        }
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let tight = RouteConfig {
            channel_capacity: 1,
            max_iterations: 12,
            tile_size: Some(p.die().width() / 6.0),
            ..RouteConfig::default()
        };
        (nl, p, tight)
    }

    #[test]
    fn congestion_negotiation_resolves_conflicts() {
        // Many nets forced through a 2-tile-wide corridor with capacity 1:
        // the router must spread or accept history-guided detours and end
        // legal (or at least reduce overflow drastically).
        let (nl, p, tight) = congested();
        let r = route(&nl, &p, &tight);
        assert!(
            r.overflow_edges() <= 1,
            "negotiation left {} overflows",
            r.overflow_edges()
        );
    }

    #[test]
    fn local_nets_have_zero_length() {
        let lib = generic::library();
        let mut nl = Netlist::new("local");
        let a = nl.add_input("a");
        let g1 = nl.add_lib_cell("g1", &lib, "INV", &[a]).unwrap();
        let g2 = nl.add_lib_cell("g2", &lib, "INV", &[g1]).unwrap();
        nl.add_output("y", g2);
        let mut p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        // Co-locate the two inverters: their net is intra-tile.
        let c1 = nl.cell_by_name("g1").unwrap();
        let c2 = nl.cell_by_name("g2").unwrap();
        p.set_position(c1, 1.0, 1.0);
        p.set_position(c2, 1.0, 1.0);
        let cfg = RouteConfig {
            tile_size: Some(p.die().width()),
            ..RouteConfig::default()
        };
        let r = route(&nl, &p, &cfg);
        assert_eq!(r.net_length(g1), 0.0);
    }

    #[test]
    fn capacity_one_grid_reports_peak_load() {
        let (_, r) = routed_chain(10, &RouteConfig::default());
        assert!(r.max_edge_load() >= 1);
        assert!(r.iterations_used() >= 1);
        assert!(r.tile_size() > 0.0);
    }

    /// When iteration 1 is already legal no rip-up happens, so the
    /// dirty-net and full-rip-up schedules are the same single pass and
    /// must agree bit-for-bit.
    #[test]
    fn incremental_matches_full_ripup_when_uncongested() {
        let lib = generic::library();
        let (nl, r_inc) = routed_chain(30, &RouteConfig::default());
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let full_ripup = RouteConfig {
            incremental: false,
            ..RouteConfig::default()
        };
        let r_full = route(&nl, &p, &full_ripup);
        assert_eq!(r_inc.overflow_edges(), r_full.overflow_edges());
        assert_eq!(
            r_inc.total_length().to_bits(),
            r_full.total_length().to_bits(),
            "uncongested routes must be identical"
        );
        assert_eq!(r_inc.iterations_used(), 1);
        // Accounting: one full pass, nothing re-routed.
        assert_eq!(r_inc.reroutes_per_iteration(), &[r_inc.nets_routed()]);
    }

    /// Under real congestion both schedules must converge to the same
    /// overflow, with comparable wirelength, while the dirty-net schedule
    /// does strictly less re-routing work.
    #[test]
    fn incremental_converges_like_full_ripup_under_congestion() {
        let (nl, p, tight) = congested();
        let r_inc = route(&nl, &p, &tight);
        let full = RouteConfig {
            incremental: false,
            ..tight.clone()
        };
        let r_full = route(&nl, &p, &full);
        assert_eq!(
            r_inc.overflow_edges(),
            r_full.overflow_edges(),
            "dirty-net negotiation must reach the same legality"
        );
        let (a, b) = (r_inc.total_length(), r_full.total_length());
        assert!(
            (a - b).abs() <= 0.25 * b.max(1.0),
            "wirelengths diverged: incremental {a} vs full {b}"
        );
        if r_inc.iterations_used() > 1 {
            assert!(
                r_inc.total_reroutes() < r_full.total_reroutes(),
                "dirty-net should re-route fewer nets: {} vs {}",
                r_inc.total_reroutes(),
                r_full.total_reroutes()
            );
        }
    }

    #[test]
    fn routing_is_deterministic_across_runs() {
        let (nl, p, tight) = congested();
        let r1 = route(&nl, &p, &tight);
        let r2 = route(&nl, &p, &tight);
        assert_eq!(r1.total_length().to_bits(), r2.total_length().to_bits());
        assert_eq!(r1.overflow_edges(), r2.overflow_edges());
        assert_eq!(r1.reroutes_per_iteration(), r2.reroutes_per_iteration());
        for net in nl.nets() {
            assert_eq!(r1.net_length(net).to_bits(), r2.net_length(net).to_bits());
        }
    }
}

#[cfg(test)]
mod route_extraction_tests {
    use super::*;
    use vpga_netlist::library::generic;
    use vpga_place::PlaceConfig;

    #[test]
    fn kept_routes_are_connected_and_length_consistent() {
        let lib = generic::library();
        let mut nl = Netlist::new("paths");
        let a = nl.add_input("a");
        let mut cur = a;
        for i in 0..8 {
            cur = nl
                .add_lib_cell(format!("i{i}"), &lib, "INV", &[cur])
                .unwrap();
        }
        nl.add_output("y", cur);
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let cfg = RouteConfig {
            keep_routes: true,
            ..RouteConfig::default()
        };
        let r = route(&nl, &p, &cfg);
        let (cols, rows) = r.grid_dims();
        assert!(cols > 0 && rows > 0);
        let mut seen_any = false;
        for net in nl.nets() {
            let Some(segments) = r.net_route(net) else {
                continue;
            };
            seen_any = true;
            // Segment count matches the reported length.
            let expect = segments.len() as f64 * r.tile_size();
            assert!((r.net_length(net) - expect).abs() < 1e-9);
            // Every segment joins adjacent in-grid tiles.
            for &((c0, r0), (c1, r1)) in segments {
                assert!(c0 < cols && c1 < cols && r0 < rows && r1 < rows);
                assert_eq!(c0.abs_diff(c1) + r0.abs_diff(r1), 1);
            }
        }
        assert!(seen_any, "at least one net kept a route");
    }

    #[test]
    fn routes_are_not_kept_by_default() {
        let lib = generic::library();
        let mut nl = Netlist::new("nopaths");
        let a = nl.add_input("a");
        let g = nl.add_lib_cell("g", &lib, "INV", &[a]).unwrap();
        nl.add_output("y", g);
        let p = vpga_place::place(&nl, &lib, &PlaceConfig::default());
        let r = route(&nl, &p, &RouteConfig::default());
        assert!(r.net_route(g).is_none());
    }
}
