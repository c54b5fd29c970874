//! Global routing over the die grid — the "ASIC-style custom global and
//! detailed routing on the regular array of PLBs" of §3.1.
//!
//! A negotiated-congestion (PathFinder-style) router over a uniform tile
//! grid: edge costs combine a base cost, a present-congestion penalty
//! ([`PRESENT_FACTOR`] per track over capacity), and an accumulated
//! history penalty ([`HISTORY_INCREMENT`] per overflowed track per
//! iteration), iterated until no edge exceeds its channel capacity.
//! Per-net routed wirelengths feed the Elmore wire delays of
//! `vpga-timing`; this is the post-layout extraction step of the paper's
//! flow.
//!
//! [`route`] is the crate's one entry point. Its [`RoutingResult`]
//! carries the router's statistics, and degenerate configurations and
//! unreachable sinks come back as a [`RouteError`].
//!
//! Each net grows one routed tree, VPR-style. Its sink tiles are taken
//! nearest-first (Manhattan distance from the source tile, ties by row,
//! then column). A sink already on the tree needs no search; any other is
//! found by one A* search seeded at cost 0 from every tile on the tree so
//! far, and the path walked back from the sink stops at the first tree
//! tile it meets. So multi-fanout nets form Steiner-like trees that branch
//! wherever joining is cheapest. Every search stays inside the net's
//! source/sink bounding box grown by `BOX_MARGIN` (3) tiles on each side:
//! a net cannot wander across the die, and a search on a congested grid
//! expands far fewer tiles. Compared with searching each sink from the
//! source alone, this finds different (shorter, cheaper) routes, so
//! wirelengths and post-route slack moved when it was introduced.
//!
//! Search state is flat: tiles are `u32` ids (`row * cols + col`), each
//! tile has one `{best, stamp, seq}` record, a heap entry is live only if
//! it is its tile's latest push (pushes for a tile carry strictly
//! decreasing costs), and each edge's congestion price is kept in an
//! array that is updated wherever its occupancy or history changes.
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

/// Recoverable routing failures surfaced by [`route`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// `channel_capacity` of zero — no net can ever be legal.
    InvalidCapacity,
    /// A configured `tile_size` that is not finite and positive — the
    /// grid would have no size (or, at zero, `usize::MAX` columns).
    InvalidTileSize {
        /// The rejected tile edge length, µm.
        tile_size: f64,
    },
    /// The tile size cuts the die into more tiles than the router's
    /// `u32` tile and edge ids can number.
    GridTooLarge {
        /// Grid columns.
        cols: usize,
        /// Grid rows.
        rows: usize,
    },
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
            RouteError::InvalidTileSize { tile_size } => {
                write!(f, "tile size must be finite and positive, got {tile_size}")
            }
            RouteError::GridTooLarge { cols, rows } => {
                write!(f, "routing grid of {cols} × {rows} tiles is too large")
            }
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
            keep_routes: false,
            incremental: true,
        }
    }
}

/// Present-congestion penalty factor: the price of each track a net would
/// take beyond an edge's capacity.
pub const PRESENT_FACTOR: f64 = 0.6;

/// History penalty increment per overflowed track per negotiation
/// iteration.
pub const HISTORY_INCREMENT: f64 = 0.4;

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

    /// The flat id (`row * cols + col`) of the tile containing `(x, y)`.
    fn tile_of(&self, x: f64, y: f64) -> u32 {
        let c = (((x - self.x0) / self.tile).floor().max(0.0) as usize).min(self.cols - 1);
        let r = (((y - self.y0) / self.tile).floor().max(0.0) as usize).min(self.rows - 1);
        (r * self.cols + c) as u32
    }

    /// `(col, row)` of a flat tile id.
    fn coords(&self, tile: u32) -> (u32, u32) {
        let cols = self.cols as u32;
        (tile % cols, tile / cols)
    }
}

/// Tiles a net's search may leave its pins' bounding box by, on each side
/// (VPR's default `bb_factor`).
const BOX_MARGIN: u32 = 3;

/// One routable net: its source tile, its distinct sink tiles nearest
/// first, and the tile box its searches stay inside.
struct Job {
    net: NetId,
    source: u32,
    sinks: Vec<u32>,
    /// Inclusive `(col, row)` corners of the pins' bounding box grown by
    /// [`BOX_MARGIN`] and clipped to the grid.
    lo: (u32, u32),
    hi: (u32, u32),
}

impl Job {
    /// Orders `sinks` nearest-first (Manhattan distance from the source,
    /// ties by row, then column) and sizes the search box around them.
    fn new(grid: &Grid, net: NetId, source: u32, mut sinks: Vec<u32>) -> Job {
        let (sc, sr) = grid.coords(source);
        // Flat ids order by row, then column.
        sinks.sort_by_key(|&t| {
            let (c, r) = grid.coords(t);
            (c.abs_diff(sc) + r.abs_diff(sr), t)
        });
        let (mut lo, mut hi) = ((sc, sr), (sc, sr));
        for &t in &sinks {
            let (c, r) = grid.coords(t);
            lo = (lo.0.min(c), lo.1.min(r));
            hi = (hi.0.max(c), hi.1.max(r));
        }
        Job {
            net,
            source,
            sinks,
            lo: (
                lo.0.saturating_sub(BOX_MARGIN),
                lo.1.saturating_sub(BOX_MARGIN),
            ),
            hi: (
                (hi.0 + BOX_MARGIN).min(grid.cols as u32 - 1),
                (hi.1 + BOX_MARGIN).min(grid.rows as u32 - 1),
            ),
        }
    }
}

/// A search frontier entry, 16 bytes. Only a tile's latest push is live:
/// an entry whose `seq` no longer matches its tile's record is stale.
struct HeapEntry {
    priority: f64,
    tile: u32,
    seq: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
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

/// Per-tile search record, valid only where `stamp` is the current search
/// epoch.
#[derive(Clone, Copy)]
struct TileState {
    /// Best-known cost from the net's tree.
    best: f64,
    /// The search epoch that wrote this record.
    stamp: u32,
    /// Push sequence number of the tile's latest heap entry.
    seq: u32,
}

/// Reusable A* state: per-tile records and parents, and the tile set of
/// the net being routed, all invalidated by bumping an epoch counter
/// instead of clearing — one allocation per routing run, none per search.
struct Scratch {
    tiles: Vec<TileState>,
    /// Parent tile and incoming edge per tile, valid where the tile's
    /// record is.
    from: Vec<(u32, u32)>,
    /// Per-tile mark: `on_tree[t] == net_epoch` ⇔ tile `t` is on the
    /// routed tree of the net currently being routed.
    on_tree: Vec<u32>,
    /// The current net's tree tiles, in the order they joined it.
    tree: Vec<u32>,
    /// Search epoch (bumped per A* call).
    epoch: u32,
    /// Tree epoch (bumped per net).
    net_epoch: u32,
    /// Pushes made by the current search.
    seq: u32,
    /// The search frontier, drained empty by every call.
    heap: BinaryHeap<HeapEntry>,
}

impl Scratch {
    fn new(n_tiles: usize) -> Scratch {
        Scratch {
            tiles: vec![
                TileState {
                    best: f64::INFINITY,
                    stamp: 0,
                    seq: 0,
                };
                n_tiles
            ],
            from: vec![(0, 0); n_tiles],
            on_tree: vec![0; n_tiles],
            tree: Vec::new(),
            epoch: 0,
            net_epoch: 0,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Routes one net: every sink, nearest first, joins the tree by the
    /// cheapest path A* finds from any tile already on it. Appends the new
    /// edges to `own`; on an unreachable sink returns that sink.
    fn route_net(
        &mut self,
        grid: &Grid,
        job: &Job,
        price: &[f64],
        own: &mut Vec<u32>,
    ) -> Result<(), u32> {
        if self.net_epoch == u32::MAX {
            self.on_tree.fill(0);
            self.net_epoch = 0;
        }
        self.net_epoch += 1;
        self.tree.clear();
        self.on_tree[job.source as usize] = self.net_epoch;
        self.tree.push(job.source);
        for &sink in &job.sinks {
            if self.on_tree[sink as usize] == self.net_epoch {
                continue; // an earlier branch already passes through it
            }
            if !self.astar(grid, job, sink, price) {
                return Err(sink);
            }
            // Walk back to the first tree tile; every tile and edge on the
            // way is new to the tree.
            let mut cur = sink;
            while self.on_tree[cur as usize] != self.net_epoch {
                let (prev, edge) = self.from[cur as usize];
                self.on_tree[cur as usize] = self.net_epoch;
                self.tree.push(cur);
                own.push(edge);
                cur = prev;
            }
        }
        Ok(())
    }

    /// A* from every tree tile (each seeded at cost 0) to `sink`, inside
    /// the job's box, leaving the parent links in `from`. Returns `false`
    /// if the sink was unreachable.
    fn astar(&mut self, grid: &Grid, job: &Job, sink: u32, price: &[f64]) -> bool {
        if self.epoch == u32::MAX {
            self.tiles.iter_mut().for_each(|t| t.stamp = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.seq = 0;
        self.heap.clear();
        let cols = grid.cols as u32;
        let h_count = (cols - 1) * grid.rows as u32;
        let (sc, sr) = grid.coords(sink);
        let h = |c: u32, r: u32| -> f64 { (c.abs_diff(sc) + r.abs_diff(sr)) as f64 };
        for i in 0..self.tree.len() {
            let t = self.tree[i];
            let (c, r) = grid.coords(t);
            self.relax(t, t, 0, 0.0, h(c, r));
        }
        let ((c_lo, r_lo), (c_hi, r_hi)) = (job.lo, job.hi);
        while let Some(entry) = self.heap.pop() {
            let t = entry.tile;
            let rec = self.tiles[t as usize];
            if rec.seq != entry.seq {
                continue; // superseded by a cheaper push
            }
            if t == sink {
                return true;
            }
            let (c, r) = grid.coords(t);
            // Neighbor order east, west, north, south: with equal
            // priorities the heap's insertion sequence decides, so it is
            // fixed.
            if c < c_hi {
                let e = t - r;
                self.relax(t + 1, t, e, rec.best + price[e as usize], h(c + 1, r));
            }
            if c > c_lo {
                let e = t - r - 1;
                self.relax(t - 1, t, e, rec.best + price[e as usize], h(c - 1, r));
            }
            if r < r_hi {
                let e = h_count + t;
                self.relax(t + cols, t, e, rec.best + price[e as usize], h(c, r + 1));
            }
            if r > r_lo {
                let e = h_count + t - cols;
                self.relax(t - cols, t, e, rec.best + price[e as usize], h(c, r - 1));
            }
        }
        false
    }

    /// Offers `cost` for reaching `tile` from `parent` over `edge`: a new
    /// tile, or a strictly cheaper path, updates the record and pushes a
    /// fresh entry (so a tile's pushes carry strictly decreasing costs).
    #[inline]
    fn relax(&mut self, tile: u32, parent: u32, edge: u32, cost: f64, h: f64) {
        let rec = &mut self.tiles[tile as usize];
        if rec.stamp != self.epoch || cost < rec.best {
            self.seq += 1;
            *rec = TileState {
                best: cost,
                stamp: self.epoch,
                seq: self.seq,
            };
            self.from[tile as usize] = (parent, edge);
            self.heap.push(HeapEntry {
                priority: cost + h,
                tile,
                seq: self.seq,
            });
        }
    }
}

/// The congestion-aware price of one more net on an edge:
/// `1 + PRESENT_FACTOR·max(0, occ+1−cap) + history`.
fn edge_price(occupancy: u32, history: f64, config: &RouteConfig) -> f64 {
    let over = occupancy as f64 + 1.0 - config.channel_capacity as f64;
    1.0 + PRESENT_FACTOR * over.max(0.0) + history
}

/// Routes every multi-tile net of the placed netlist; pins without a
/// position are left out. The result carries the router's statistics
/// (iterations, reroutes, overflow).
///
/// # Errors
///
/// * [`RouteError::InvalidCapacity`] if `config.channel_capacity` is zero,
/// * [`RouteError::InvalidTileSize`] if `config.tile_size` is set but not
///   finite and positive,
/// * [`RouteError::GridTooLarge`] if the tile size cuts the die into more
///   tiles than `u32` ids can number,
/// * [`RouteError::Unroutable`] if a sink tile cannot be reached.
pub fn route(
    netlist: &Netlist,
    placement: &Placement,
    config: &RouteConfig,
) -> Result<RoutingResult, RouteError> {
    if config.channel_capacity == 0 {
        return Err(RouteError::InvalidCapacity);
    }
    if let Some(tile_size) = config.tile_size {
        if !(tile_size.is_finite() && tile_size > 0.0) {
            return Err(RouteError::InvalidTileSize { tile_size });
        }
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
    // Tiles and edges (about two per tile) are numbered by `u32` ids.
    let tiles = grid.cols.checked_mul(grid.rows);
    if tiles.is_none_or(|n| n > (u32::MAX / 2) as usize) {
        return Err(RouteError::GridTooLarge {
            cols: grid.cols,
            rows: grid.rows,
        });
    }
    // Collect routable nets: ≥2 placed pins spanning ≥2 tiles; skip
    // constant-driven nets.
    let mut jobs: Vec<Job> = Vec::new();
    let mut net_length = vec![0.0f64; netlist.net_capacity()];
    let mut seen_sinks: HashSet<u32> = HashSet::new();
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
        // Deduplicate sink tiles; set-based membership keeps this
        // O(fanout) instead of O(fanout²).
        seen_sinks.clear();
        let mut sinks: Vec<u32> = Vec::new();
        for &(cell, _) in netlist.sinks(net) {
            if let Some((x, y)) = placement.position(cell) {
                let t = grid.tile_of(x, y);
                if t != source && seen_sinks.insert(t) {
                    sinks.push(t);
                }
            }
        }
        if !sinks.is_empty() {
            jobs.push(Job::new(&grid, net, source, sinks));
        }
    }
    // Negotiated congestion loop. Iteration 1 routes everything; later
    // iterations rip up only the dirty nets (paths crossing over-capacity
    // edges) unless `config.incremental` is off.
    let n_edges = grid.num_edges();
    let mut history = vec![0.0f64; n_edges];
    let mut occupancy = vec![0u32; n_edges];
    // `price[e]` is kept equal to `edge_price(occupancy[e], history[e])`.
    let mut price = vec![edge_price(0, 0.0, config); n_edges];
    let mut net_edges: Vec<Vec<u32>> = (0..jobs.len()).map(|_| Vec::new()).collect();
    let mut scratch = Scratch::new(grid.cols * grid.rows);
    let mut own: Vec<u32> = Vec::new();
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
                let e = e as usize;
                occupancy[e] -= 1;
                price[e] = edge_price(occupancy[e], history[e], config);
            }
        }
        for &ji in &dirty {
            let job = &jobs[ji];
            own.clear();
            if let Err(sink) = scratch.route_net(&grid, job, &price, &mut own) {
                let (c, r) = grid.coords(sink);
                return Err(RouteError::Unroutable {
                    net: job.net,
                    sink: (c as usize, r as usize),
                });
            }
            for &e in &own {
                let e = e as usize;
                occupancy[e] += 1;
                price[e] = edge_price(occupancy[e], history[e], config);
            }
            net_edges[ji].clear();
            net_edges[ji].extend_from_slice(&own);
        }
        // Overflow check and history update.
        let mut overflow = 0usize;
        for (e, &occ) in occupancy.iter().enumerate() {
            if occ > config.channel_capacity {
                overflow += 1;
                history[e] += HISTORY_INCREMENT * (occ - config.channel_capacity) as f64;
                price[e] = edge_price(occ, history[e], config);
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
                        .any(|&e| occupancy[e as usize] > config.channel_capacity)
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
            let segments: Vec<RouteSegment> = edges
                .iter()
                .map(|&e| grid.edge_endpoints(e as usize))
                .collect();
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
        let (p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
        let r = route(&nl, &p, cfg).unwrap();
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
        let (mut p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
        let gc = nl.cell_by_name("g").unwrap();
        let die = p.die();
        p.set_position(gc, die.x1 - 0.01, die.y1 - 0.01);
        let cfg = RouteConfig {
            tile_size: Some(die.width() / 8.0),
            ..RouteConfig::default()
        };
        let r = route(&nl, &p, &cfg).unwrap();
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
        let (p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
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
        let r = route(&nl, &p, &tight).unwrap();
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
        let (mut p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
        // Co-locate the two inverters: their net is intra-tile.
        let c1 = nl.cell_by_name("g1").unwrap();
        let c2 = nl.cell_by_name("g2").unwrap();
        p.set_position(c1, 1.0, 1.0);
        p.set_position(c2, 1.0, 1.0);
        let cfg = RouteConfig {
            tile_size: Some(p.die().width()),
            ..RouteConfig::default()
        };
        let r = route(&nl, &p, &cfg).unwrap();
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
        let (p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
        let full_ripup = RouteConfig {
            incremental: false,
            ..RouteConfig::default()
        };
        let r_full = route(&nl, &p, &full_ripup).unwrap();
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
        let r_inc = route(&nl, &p, &tight).unwrap();
        let full = RouteConfig {
            incremental: false,
            ..tight.clone()
        };
        let r_full = route(&nl, &p, &full).unwrap();
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
        let r1 = route(&nl, &p, &tight).unwrap();
        let r2 = route(&nl, &p, &tight).unwrap();
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
    fn routes_are_not_kept_by_default() {
        let lib = generic::library();
        let mut nl = Netlist::new("nopaths");
        let a = nl.add_input("a");
        let g = nl.add_lib_cell("g", &lib, "INV", &[a]).unwrap();
        nl.add_output("y", g);
        let (p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
        let r = route(&nl, &p, &RouteConfig::default()).unwrap();
        assert!(r.net_route(g).is_none());
    }

    #[test]
    fn degenerate_tile_sizes_are_typed_errors() {
        let lib = generic::library();
        let mut nl = Netlist::new("tiles");
        let a = nl.add_input("a");
        let g = nl.add_lib_cell("g", &lib, "INV", &[a]).unwrap();
        nl.add_output("y", g);
        let (p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
        assert!(p.die().area() > 0.0);
        for tile_size in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = RouteConfig {
                tile_size: Some(tile_size),
                ..RouteConfig::default()
            };
            match route(&nl, &p, &cfg) {
                Err(RouteError::InvalidTileSize { tile_size: got }) => {
                    assert_eq!(got.to_bits(), tile_size.to_bits());
                }
                other => panic!("tile size {tile_size}: {other:?}"),
            }
        }
        // A positive but tiny tile is rejected before any grid-sized
        // allocation.
        let cfg = RouteConfig {
            tile_size: Some(p.die().width() * 1e-6),
            ..RouteConfig::default()
        };
        assert!(matches!(
            route(&nl, &p, &cfg),
            Err(RouteError::GridTooLarge { .. })
        ));
    }

    /// SplitMix64: a tiny seeded generator for scattering test cells.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A seeded random netlist — NAND2s over random earlier nets plus four
    /// hub nets driving 8–20 inverters each — with every cell scattered
    /// uniformly over the die.
    fn scattered(seed: u64) -> (Netlist, Placement) {
        let lib = generic::library();
        let mut rng = Mix(seed);
        let mut nl = Netlist::new("scattered");
        let mut nets = vec![nl.add_input("a"), nl.add_input("b")];
        for i in 0..60 {
            let x = nets[rng.below(nets.len())];
            let y = nets[rng.below(nets.len())];
            nets.push(
                nl.add_lib_cell(format!("n{i}"), &lib, "NAND2", &[x, y])
                    .unwrap(),
            );
        }
        for h in 0..4 {
            let hub = nets[rng.below(nets.len())];
            for k in 0..8 + rng.below(13) {
                let g = nl.add_lib_cell(format!("h{h}_{k}"), &lib, "INV", &[hub]);
                nets.push(g.unwrap());
            }
        }
        for (i, &n) in nets.iter().rev().take(6).enumerate() {
            nl.add_output(format!("y{i}"), n);
        }
        let (mut p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
        let die = p.die();
        let cells: Vec<_> = nl.cells().map(|(id, _)| id).collect();
        for cell in cells {
            let (x, y) = (rng.unit(), rng.unit());
            p.set_position(cell, die.x0 + x * die.width(), die.y0 + y * die.height());
        }
        (nl, p)
    }

    /// Routes with `keep_routes` and checks that every routed net is one
    /// tree of distinct 4-adjacent in-grid hops that holds its source and
    /// every sink tile, stays inside its pins' box grown by the margin,
    /// and is as long as its hops. Returns the result and the number of
    /// routed nets with 8 or more sink tiles.
    fn assert_trees(nl: &Netlist, p: &Placement, cfg: &RouteConfig) -> (RoutingResult, usize) {
        type Tile = (usize, usize);
        let r = route(nl, p, cfg).unwrap();
        let (cols, rows) = r.grid_dims();
        let die = p.die();
        let tile_of = |(x, y): (f64, f64)| -> Tile {
            let c = (((x - die.x0) / r.tile_size()).floor().max(0.0) as usize).min(cols - 1);
            let row = (((y - die.y0) / r.tile_size()).floor().max(0.0) as usize).min(rows - 1);
            (c, row)
        };
        let margin = BOX_MARGIN as usize;
        let mut wide = 0;
        for net in nl.nets() {
            let Some(segments) = r.net_route(net) else {
                continue;
            };
            let source = tile_of(p.position(nl.driver(net).unwrap()).unwrap());
            let sinks: HashSet<Tile> = nl
                .sinks(net)
                .iter()
                .filter_map(|&(cell, _)| p.position(cell).map(tile_of))
                .filter(|&t| t != source)
                .collect();
            assert!(!sinks.is_empty(), "net {net} routed without remote sinks");
            if sinks.len() >= 8 {
                wide += 1;
            }
            let pins = || sinks.iter().chain(std::iter::once(&source));
            let lo = (
                pins().map(|t| t.0).min().unwrap().saturating_sub(margin),
                pins().map(|t| t.1).min().unwrap().saturating_sub(margin),
            );
            let hi = (
                pins().map(|t| t.0).max().unwrap() + margin,
                pins().map(|t| t.1).max().unwrap() + margin,
            );
            let mut hops: HashSet<(Tile, Tile)> = HashSet::new();
            let mut adjacent: std::collections::HashMap<Tile, Vec<Tile>> = Default::default();
            for &(a, b) in segments {
                for t in [a, b] {
                    assert!(t.0 < cols && t.1 < rows, "net {net}: {t:?} off the grid");
                    assert!(
                        (lo.0..=hi.0).contains(&t.0) && (lo.1..=hi.1).contains(&t.1),
                        "net {net}: {t:?} outside the box {lo:?}..={hi:?}"
                    );
                }
                assert_eq!(a.0.abs_diff(b.0) + a.1.abs_diff(b.1), 1, "net {net}");
                assert!(
                    hops.insert((a.min(b), a.max(b))),
                    "net {net}: hop {a:?}-{b:?} repeats"
                );
                adjacent.entry(a).or_default().push(b);
                adjacent.entry(b).or_default().push(a);
            }
            // Connected, and one tile more than hops: a tree.
            assert_eq!(adjacent.len(), segments.len() + 1, "net {net}: not a tree");
            let mut reached: HashSet<Tile> = HashSet::from([source]);
            let mut stack = vec![source];
            while let Some(t) = stack.pop() {
                for &n in adjacent.get(&t).into_iter().flatten() {
                    if reached.insert(n) {
                        stack.push(n);
                    }
                }
            }
            assert_eq!(reached.len(), adjacent.len(), "net {net}: disconnected");
            assert!(sinks.iter().all(|t| reached.contains(t)), "net {net}");
            let expect = segments.len() as f64 * r.tile_size();
            assert_eq!(r.net_length(net).to_bits(), expect.to_bits(), "net {net}");
        }
        (r, wide)
    }

    #[test]
    fn routed_nets_are_trees_inside_their_boxes() {
        // An annealer-placed inverter chain: two-pin nets only.
        let lib = generic::library();
        let mut nl = Netlist::new("paths");
        let mut cur = nl.add_input("a");
        for i in 0..8 {
            cur = nl
                .add_lib_cell(format!("i{i}"), &lib, "INV", &[cur])
                .unwrap();
        }
        nl.add_output("y", cur);
        let (p, _) = vpga_place::place(&nl, &lib, &PlaceConfig::default()).unwrap();
        let keep = RouteConfig {
            keep_routes: true,
            ..RouteConfig::default()
        };
        assert!(assert_trees(&nl, &p, &keep).0.nets_routed() > 0);
        // Scattered netlists with wide nets, uncongested and at capacity 1.
        let mut negotiated = 0;
        for seed in 0..6 {
            let (nl, p) = scattered(seed);
            let open = RouteConfig {
                keep_routes: true,
                ..RouteConfig::default()
            };
            let (r, wide) = assert_trees(&nl, &p, &open);
            assert!(r.nets_routed() > 0);
            assert!(wide > 0, "seed {seed}: no net with 8+ sink tiles");
            let tight = RouteConfig {
                channel_capacity: 1,
                max_iterations: 6,
                ..open
            };
            let (r, _) = assert_trees(&nl, &p, &tight);
            if r.iterations_used() > 1 {
                negotiated += 1;
            }
        }
        assert!(negotiated > 0, "capacity 1 never forced a second iteration");
    }
}
