//! Disk checkpointing for the stage graph (`--checkpoint-dir` /
//! `--resume`).
//!
//! Each (design, architecture) front-end and each (design, architecture,
//! variant) back-end result persists to its own file, rewritten after
//! every completed stage via a write-to-temp-then-rename so a kill mid
//! write can never leave a torn file behind. Every file carries:
//!
//! * a magic/version tag,
//! * a fingerprint of the flow configuration and design parameters that
//!   produced it (a checkpoint from a different config silently misses),
//! * the payload, snapshot-encoded via [`vpga_netlist::wire`] with exact
//!   `f64` bit patterns,
//! * an FNV-1a digest of the payload bytes.
//!
//! Loads validate all of it and answer `None` on any mismatch — resuming
//! against a stale, corrupt, truncated, or foreign checkpoint degrades to
//! recomputing the stage, never to wrong results. The incremental-STA
//! state is deliberately *not* serialized: the flow audits that its state
//! after every front-end stage is bit-identical to a fresh full analysis
//! of the snapshotted netlist and placement, so a restore rebuilds it
//! from those — which is what makes resumed fingerprints byte-identical
//! to uninterrupted runs.

use std::io;
use std::path::{Path, PathBuf};

use vpga_core::PlbArchitecture;
use vpga_designs::DesignParams;
use vpga_netlist::wire::{Reader, Writer};
use vpga_netlist::Netlist;
use vpga_place::{BufferEdit, PlaceConfig, Placement};
use vpga_timing::IncrementalSta;

use crate::config::{EmitConfig, FlowConfig, FlowVariant};
use crate::error::FlowError;
use crate::faultpoint;
use crate::pipeline::FlowResult;
use crate::stages::FrontArtifacts;
use crate::stats::{StageId, StageStats};

/// Size of the framed header preceding the payload: magic, kind,
/// completed count, config fingerprint, payload length.
const HEADER_LEN: usize = 8 + 1 + 1 + 8 + 8;

const MAGIC: &[u8; 8] = b"VPGACKP2";
const KIND_FRONT: u8 = 0;
const KIND_RESULT: u8 = 1;

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fingerprint of everything that determines a run's artifacts: the
/// flow configuration (normalized — audit, deadlines, route-keeping, and
/// interchange emission change no artifact bits), the design
/// parameters, and the canonical description of the target architecture
/// (so two fabrics sharing a name — e.g. a builtin and a modified
/// `--arch-file` override — never share artifacts). A checkpoint
/// recorded under a different fingerprint never restores.
pub(crate) fn config_fingerprint(
    config: &FlowConfig,
    params: &DesignParams,
    arch: &PlbArchitecture,
) -> u64 {
    let normalized = FlowConfig {
        audit: false,
        deadline: None,
        emit: EmitConfig::default(),
        route: vpga_route::RouteConfig {
            keep_routes: false,
            ..config.route.clone()
        },
        ..config.clone()
    };
    let mut h = fnv1a(format!("{normalized:?}").as_bytes());
    h ^= fnv1a(format!("{params:?}").as_bytes());
    h ^= arch.desc_fingerprint();
    h
}

/// The fingerprint keying a *front-end* artifact: [`config_fingerprint`]
/// with every back-end-only knob (packing, the packer's criticality
/// weighting, routing) normalized to its default, so jobs that differ
/// only in back-end parameters share one front-end cache entry. The
/// front-end stages read none of those fields — synthesis, compaction,
/// placement, and physical synthesis consume `cut_based_mapper`,
/// `compaction`, `place`, `timing`, and the buffer bounds only.
pub(crate) fn front_config_fingerprint(
    config: &FlowConfig,
    params: &DesignParams,
    arch: &PlbArchitecture,
) -> u64 {
    config_fingerprint(
        &FlowConfig {
            pack: vpga_pack::PackConfig::default(),
            pack_criticality: true,
            route: vpga_route::RouteConfig::default(),
            ..config.clone()
        },
        params,
        arch,
    )
}

fn encode_stats(w: &mut Writer, s: &StageStats) {
    let stage = StageId::ALL
        .iter()
        .position(|&id| id == s.stage)
        .expect("stage is in ALL") as u8;
    w.u8(stage);
    w.u64(s.wall.as_nanos() as u64);
    w.usize(s.cells);
    w.usize(s.nets);
    w.opt(s.cost_before, Writer::f64);
    w.opt(s.cost_after, Writer::f64);
    w.opt(s.moves_attempted, Writer::u64);
    w.opt(s.moves_accepted, Writer::u64);
    w.opt(s.bbox_incremental, Writer::u64);
    w.opt(s.bbox_full, Writer::u64);
    w.opt(s.nets_rerouted, Writer::u64);
    w.opt(s.nets_total, Writer::u64);
    w.opt(s.retries, Writer::u32);
    w.opt(s.sta_full, Writer::u64);
    w.opt(s.sta_incremental, Writer::u64);
    w.opt(s.sta_nodes_touched, Writer::u64);
    w.opt(s.cache_hits, Writer::u64);
    w.opt(s.cache_misses, Writer::u64);
    w.opt(s.cache_evicted, Writer::u64);
}

fn decode_stats(r: &mut Reader<'_>) -> Option<StageStats> {
    let stage = *StageId::ALL.get(r.u8()? as usize)?;
    let wall = std::time::Duration::from_nanos(r.u64()?);
    let cells = r.usize()?;
    let nets = r.usize()?;
    let mut s = StageStats::new(stage, wall, cells, nets);
    s.cost_before = r.opt(Reader::f64)?;
    s.cost_after = r.opt(Reader::f64)?;
    s.moves_attempted = r.opt(Reader::u64)?;
    s.moves_accepted = r.opt(Reader::u64)?;
    s.bbox_incremental = r.opt(Reader::u64)?;
    s.bbox_full = r.opt(Reader::u64)?;
    s.nets_rerouted = r.opt(Reader::u64)?;
    s.nets_total = r.opt(Reader::u64)?;
    s.retries = r.opt(Reader::u32)?;
    s.sta_full = r.opt(Reader::u64)?;
    s.sta_incremental = r.opt(Reader::u64)?;
    s.sta_nodes_touched = r.opt(Reader::u64)?;
    s.cache_hits = r.opt(Reader::u64)?;
    s.cache_misses = r.opt(Reader::u64)?;
    s.cache_evicted = r.opt(Reader::u64)?;
    Some(s)
}

fn encode_stats_list(w: &mut Writer, stages: &[StageStats]) {
    w.usize(stages.len());
    for s in stages {
        encode_stats(w, s);
    }
}

fn decode_stats_list(r: &mut Reader<'_>) -> Option<Vec<StageStats>> {
    let n = r.usize()?;
    let mut out = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        out.push(decode_stats(r)?);
    }
    Some(out)
}

pub(crate) fn encode_front(w: &mut Writer, store: &FrontArtifacts, stages: &[StageStats]) {
    w.str(&store.design);
    w.f64(store.gates_nand2);
    w.opt(store.compaction.as_ref(), |w, c| {
        w.usize(c.cells_before);
        w.usize(c.cells_after);
        w.f64(c.area_before);
        w.f64(c.area_after);
        w.usize(c.rewrites_by_config.len());
        for (name, count) in &c.rewrites_by_config {
            w.str(name);
            w.usize(*count);
        }
    });
    w.opt(store.netlist.as_ref(), |w, n| n.encode_snapshot(w));
    w.opt(store.placement.as_ref(), |w, p| p.encode_snapshot(w));
    w.opt(store.weighted.as_ref(), |w, cfg| {
        w.f64(cfg.utilization);
        w.u64(cfg.seed);
        w.usize(cfg.moves_per_cell);
        w.opt(cfg.net_weights.as_ref(), |w, ws| {
            w.usize(ws.len());
            for &x in ws {
                w.f64(x);
            }
        });
    });
    w.opt(store.buffer_trace.as_ref(), |w, edits| {
        w.usize(edits.len());
        for e in edits {
            w.u32(e.net.index() as u32);
            w.u32(e.buffer.index() as u32);
            w.u32(e.buffer_net.index() as u32);
            w.usize(e.moved_sinks.len());
            for &(c, pin) in &e.moved_sinks {
                w.u32(c.index() as u32);
                w.usize(pin);
            }
        }
    });
    encode_stats_list(w, stages);
}

fn decode_front(r: &mut Reader<'_>) -> Option<(FrontArtifacts, Vec<StageStats>)> {
    let design = r.str()?;
    let mut store = FrontArtifacts::new(&design);
    store.gates_nand2 = r.f64()?;
    store.compaction = r.opt(|r| {
        let cells_before = r.usize()?;
        let cells_after = r.usize()?;
        let area_before = r.f64()?;
        let area_after = r.f64()?;
        let n = r.usize()?;
        let mut rewrites_by_config = std::collections::BTreeMap::new();
        for _ in 0..n {
            let name = r.str()?;
            let count = r.usize()?;
            rewrites_by_config.insert(name, count);
        }
        Some(vpga_compact::CompactionReport {
            cells_before,
            cells_after,
            area_before,
            area_after,
            rewrites_by_config,
        })
    })?;
    store.netlist = r.opt(Netlist::decode_snapshot)?;
    store.placement = r.opt(Placement::decode_snapshot)?;
    store.weighted = r.opt(|r| {
        let utilization = r.f64()?;
        let seed = r.u64()?;
        let moves_per_cell = r.usize()?;
        let net_weights = r.opt(|r| {
            let n = r.usize()?;
            let mut ws = Vec::with_capacity(n.min(1 << 24));
            for _ in 0..n {
                ws.push(r.f64()?);
            }
            Some(ws)
        })?;
        Some(PlaceConfig {
            utilization,
            seed,
            moves_per_cell,
            net_weights,
        })
    })?;
    store.buffer_trace = r.opt(|r| {
        let n = r.usize()?;
        let mut edits = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let net = vpga_netlist::NetId::from_index(r.u32()? as usize);
            let buffer = vpga_netlist::CellId::from_index(r.u32()? as usize);
            let buffer_net = vpga_netlist::NetId::from_index(r.u32()? as usize);
            let m = r.usize()?;
            let mut moved_sinks = Vec::with_capacity(m.min(1 << 16));
            for _ in 0..m {
                let c = vpga_netlist::CellId::from_index(r.u32()? as usize);
                let pin = r.usize()?;
                moved_sinks.push((c, pin));
            }
            edits.push(BufferEdit {
                net,
                buffer,
                buffer_net,
                moved_sinks,
            });
        }
        Some(edits)
    })?;
    let stages = decode_stats_list(r)?;
    Some((store, stages))
}

pub(crate) fn encode_result(w: &mut Writer, result: &FlowResult) {
    w.u8(match result.variant {
        FlowVariant::A => 0,
        FlowVariant::B => 1,
    });
    w.f64(result.die_area);
    w.f64(result.avg_top10_slack);
    w.f64(result.worst_slack);
    w.f64(result.critical_delay);
    w.f64(result.wirelength);
    w.f64(result.power_mw);
    w.usize(result.cells);
    w.opt(result.array, |w, (c, rows, used)| {
        w.usize(c);
        w.usize(rows);
        w.usize(used);
    });
    w.usize(result.route_overflow);
    encode_stats_list(w, &result.stages);
}

/// The one front-end payload decoder, shared by the disk tier
/// ([`CheckpointStore::load_front`]) and the serve cache's hit path:
/// decodes a payload recorded after `completed` plan steps of `design`
/// and rebuilds the incremental timer from the restored netlist and
/// placement (bit-identical to the recorded state by the flow's audited
/// STA-equivalence invariant). `None` = fail closed.
pub(crate) fn decode_front_payload(
    payload: &[u8],
    design: &str,
    arch: &PlbArchitecture,
    config: &FlowConfig,
    completed: usize,
) -> Option<(FrontArtifacts, Vec<StageStats>)> {
    let mut r = Reader::new(payload);
    let (mut store, stages) = decode_front(&mut r)?;
    if !r.done() || store.design != design || stages.len() != completed {
        return None;
    }
    if let (Some(netlist), Some(placement)) = (&store.netlist, &store.placement) {
        let mut sta = IncrementalSta::new(netlist, arch.library(), &config.timing).ok()?;
        sta.full_analyze(netlist, placement, None);
        store.sta = Some(sta);
    }
    Some((store, stages))
}

/// The one result payload decoder, shared by the disk tier
/// ([`CheckpointStore::load_result`]) and the serve cache's hit path.
/// `None` = fail closed, including a valid result of another variant.
pub(crate) fn decode_result_payload(payload: &[u8], variant: FlowVariant) -> Option<FlowResult> {
    let mut r = Reader::new(payload);
    let result = decode_result(&mut r)?;
    (r.done() && result.variant == variant).then_some(result)
}

fn decode_result(r: &mut Reader<'_>) -> Option<FlowResult> {
    let variant = match r.u8()? {
        0 => FlowVariant::A,
        1 => FlowVariant::B,
        _ => return None,
    };
    Some(FlowResult {
        variant,
        die_area: r.f64()?,
        avg_top10_slack: r.f64()?,
        worst_slack: r.f64()?,
        critical_delay: r.f64()?,
        wirelength: r.f64()?,
        power_mw: r.f64()?,
        cells: r.usize()?,
        array: r.opt(|r| Some((r.usize()?, r.usize()?, r.usize()?)))?,
        route_overflow: r.usize()?,
        stages: decode_stats_list(r)?,
    })
}

/// A directory of stage-graph checkpoints.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    resume: bool,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory. With `resume`
    /// set, later runs read back validated checkpoints and skip completed
    /// stages; without it the directory is write-only.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, resume: bool) -> io::Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir, resume })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether this store reads checkpoints back on load.
    pub fn resume(&self) -> bool {
        self.resume
    }

    fn front_path(&self, design: &str, arch: &str) -> PathBuf {
        self.dir.join(format!("front-{design}-{arch}.ckpt"))
    }

    fn result_path(&self, design: &str, arch: &str, variant: FlowVariant) -> PathBuf {
        self.dir
            .join(format!("result-{design}-{arch}-{}.ckpt", variant.key()))
    }

    /// Frames `payload` with the magic, kind, completed count, config
    /// fingerprint, and payload digest, then writes it atomically and
    /// durably: the temp file is fsynced before the rename and the
    /// directory is fsynced after it, so a kill at any instant leaves
    /// either the previous checkpoint or the complete new one — never a
    /// torn, readable-but-wrong artifact. Best-effort: IO failures warn
    /// and continue — a run must never die because its checkpoint disk
    /// filled up.
    fn write_file(&self, path: &Path, kind: u8, completed: u8, config_fp: u64, payload: &[u8]) {
        let mut framed = Vec::with_capacity(payload.len() + 34);
        framed.extend_from_slice(MAGIC);
        framed.push(kind);
        framed.push(completed);
        framed.extend_from_slice(&config_fp.to_le_bytes());
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(payload);
        framed.extend_from_slice(&fnv1a(payload).to_le_bytes());
        if let Err(e) = self.write_durable(path, &framed) {
            eprintln!(
                "warning: failed to write checkpoint {}: {e}",
                path.display()
            );
        }
    }

    /// The durable half of [`Self::write_file`]: temp write, file fsync,
    /// rename, directory fsync. The `checkpoint_rename` fault point sits
    /// in the kill window between the durable temp write and the rename —
    /// an injected fault there simulates a crash that must lose the
    /// update, never tear it.
    fn write_durable(&self, path: &Path, framed: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let tmp = path.with_extension("ckpt.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(framed)?;
        file.sync_all()?;
        drop(file);
        faultpoint::fire("checkpoint_rename", &path.display().to_string())
            .map_err(|e| io::Error::other(e.to_string()))?;
        std::fs::rename(&tmp, path)?;
        // The rename itself is only durable once the directory entry is:
        // fsync the directory too.
        std::fs::File::open(&self.dir)?.sync_all()
    }

    /// Reads and validates a framed checkpoint, returning the completed
    /// count and payload bytes. Every rejection is a
    /// [`FlowError::Checkpoint`] carrying the file path and the byte
    /// offset where validation first failed.
    fn read_file_strict(
        &self,
        path: &Path,
        kind: u8,
        config_fp: u64,
    ) -> Result<(u8, Vec<u8>), FlowError> {
        let fail = |offset: usize, detail: &str| FlowError::Checkpoint {
            path: path.to_path_buf(),
            offset,
            detail: detail.to_owned(),
        };
        let bytes = std::fs::read(path).map_err(|e| fail(0, &format!("read failed: {e}")))?;
        let mut r = Reader::new(&bytes);
        let mut magic = [0u8; 8];
        for slot in &mut magic {
            *slot = r.u8().ok_or_else(|| fail(r.pos(), "truncated header"))?;
        }
        if magic != *MAGIC {
            let expected = String::from_utf8_lossy(MAGIC);
            return Err(fail(0, &format!("bad magic (not a {expected} checkpoint)")));
        }
        let got_kind = r.u8().ok_or_else(|| fail(r.pos(), "truncated header"))?;
        if got_kind != kind {
            return Err(fail(8, &format!("kind {got_kind}, expected {kind}")));
        }
        let completed = r.u8().ok_or_else(|| fail(r.pos(), "truncated header"))?;
        let got_fp = r.u64().ok_or_else(|| fail(r.pos(), "truncated header"))?;
        if got_fp != config_fp {
            return Err(fail(
                10,
                &format!("config fingerprint {got_fp:#018x}, expected {config_fp:#018x}"),
            ));
        }
        let len = r.usize().ok_or_else(|| fail(r.pos(), "truncated header"))?;
        let payload = len
            .checked_add(HEADER_LEN)
            .and_then(|end| bytes.get(HEADER_LEN..end))
            .ok_or_else(|| fail(HEADER_LEN, "payload shorter than header claims"))?;
        let digest_at = HEADER_LEN + len;
        let digest = bytes
            .get(digest_at..digest_at + 8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
            .ok_or_else(|| fail(digest_at, "missing payload digest"))?;
        if fnv1a(payload) != digest {
            return Err(fail(digest_at, "payload digest mismatch"));
        }
        Ok((completed, payload.to_vec()))
    }

    /// [`Self::read_file_strict`] with rejections collapsed to `None` —
    /// the resume path degrades to recomputation on any invalid file.
    fn read_file(&self, path: &Path, kind: u8, config_fp: u64) -> Option<(u8, Vec<u8>)> {
        self.read_file_strict(path, kind, config_fp).ok()
    }

    /// Loads the deepest valid front-end checkpoint for `(design, arch)`,
    /// returning the restored artifact store, its stage records, and the
    /// number of completed plan steps. `None` (recompute from scratch)
    /// unless resuming, the file validates, and the config fingerprint
    /// matches. The payload goes through [`decode_front_payload`], which
    /// rebuilds the incremental-STA state.
    pub(crate) fn load_front(
        &self,
        design: &str,
        arch: &PlbArchitecture,
        config: &FlowConfig,
        params: &DesignParams,
        plan_len: usize,
    ) -> Option<(FrontArtifacts, Vec<StageStats>, usize)> {
        if !self.resume {
            return None;
        }
        let fp = config_fingerprint(config, params, arch);
        let path = self.front_path(design, arch.name());
        let (completed, payload) = self.read_file(&path, KIND_FRONT, fp)?;
        let completed = completed as usize;
        if completed == 0 || completed > plan_len {
            return None;
        }
        let (store, stages) = decode_front_payload(&payload, design, arch, config, completed)?;
        Some((store, stages, completed))
    }

    /// Persists the front-end store after `completed` plan steps
    /// (overwrites any shallower checkpoint). Best-effort: IO failures
    /// warn and continue.
    pub(crate) fn save_front(
        &self,
        arch: &PlbArchitecture,
        config: &FlowConfig,
        params: &DesignParams,
        store: &FrontArtifacts,
        stages: &[StageStats],
        completed: usize,
    ) {
        let mut w = Writer::new();
        encode_front(&mut w, store, stages);
        self.write_file(
            &self.front_path(&store.design, arch.name()),
            KIND_FRONT,
            completed as u8,
            config_fingerprint(config, params, arch),
            &w.into_bytes(),
        );
    }

    /// Loads a completed back-end result for `(design, arch, variant)`,
    /// if resuming and a valid checkpoint exists.
    pub(crate) fn load_result(
        &self,
        design: &str,
        arch: &PlbArchitecture,
        variant: FlowVariant,
        config: &FlowConfig,
        params: &DesignParams,
    ) -> Option<FlowResult> {
        if !self.resume {
            return None;
        }
        let fp = config_fingerprint(config, params, arch);
        let path = self.result_path(design, arch.name(), variant);
        let (_, payload) = self.read_file(&path, KIND_RESULT, fp)?;
        decode_result_payload(&payload, variant)
    }

    /// Persists a completed back-end result. Best-effort.
    pub(crate) fn save_result(
        &self,
        design: &str,
        arch: &PlbArchitecture,
        config: &FlowConfig,
        params: &DesignParams,
        result: &FlowResult,
    ) {
        let mut w = Writer::new();
        encode_result(&mut w, result);
        self.write_file(
            &self.result_path(design, arch.name(), result.variant),
            KIND_RESULT,
            0,
            config_fingerprint(config, params, arch),
            &w.into_bytes(),
        );
    }

    /// The `.vxdl` twin of a front-end checkpoint file.
    fn front_text_path(&self, design: &str, arch: &str) -> PathBuf {
        self.dir.join(format!("front-{design}-{arch}.vxdl"))
    }

    /// Reads the binary front-end checkpoint for `(design, arch)` strictly
    /// and returns its snapshotted netlist and placement — the state both
    /// `.vxdl` migration steps work from. `action` names the step in the
    /// error for a checkpoint that predates placement.
    fn read_front_snapshot(
        &self,
        design: &str,
        arch: &PlbArchitecture,
        config: &FlowConfig,
        params: &DesignParams,
        action: &str,
    ) -> Result<(Netlist, Placement), FlowError> {
        let bin_path = self.front_path(design, arch.name());
        let fp = config_fingerprint(config, params, arch);
        let (_, payload) = self.read_file_strict(&bin_path, KIND_FRONT, fp)?;
        let mut r = Reader::new(&payload);
        let (store, _stages) = decode_front(&mut r).ok_or_else(|| FlowError::Checkpoint {
            path: bin_path.clone(),
            offset: HEADER_LEN + r.pos(),
            detail: "front-end payload failed to decode".to_owned(),
        })?;
        match (store.netlist, store.placement) {
            (Some(netlist), Some(placement)) => Ok((netlist, placement)),
            _ => Err(FlowError::Checkpoint {
                path: bin_path,
                offset: HEADER_LEN,
                detail: format!("checkpoint predates placement; nothing to {action}"),
            }),
        }
    }

    /// Migrates the binary front-end checkpoint for `(design, arch)` to
    /// its `.vxdl` text twin, returning the written path and the snapshot
    /// fingerprint of the exported state.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] (with file path and byte offset) when
    /// the binary checkpoint is unreadable, fails validation, has not yet
    /// snapshotted a netlist and placement, or the text file cannot be
    /// written.
    pub fn export_front_text(
        &self,
        design: &str,
        arch: &PlbArchitecture,
        config: &FlowConfig,
        params: &DesignParams,
    ) -> Result<(PathBuf, u64), FlowError> {
        let (netlist, placement) =
            self.read_front_snapshot(design, arch, config, params, "export")?;
        let text = vpga_interchange::vxdl::encode(&netlist, &placement, &[]);
        let fingerprint = vpga_interchange::snapshot_fingerprint(&netlist, &placement);
        let path = self.front_text_path(design, arch.name());
        let tmp = path.with_extension("vxdl.tmp");
        std::fs::write(&tmp, text.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| FlowError::Checkpoint {
                path: path.clone(),
                offset: 0,
                detail: format!("write failed: {e}"),
            })?;
        Ok((path, fingerprint))
    }

    /// Verifies the `.vxdl` twin of the front-end checkpoint for
    /// `(design, arch)`: parses the text, re-fingerprints the decoded
    /// netlist + placement, and requires the fingerprint to match the
    /// binary checkpoint's state exactly. Returns the fingerprint.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] — with the text file's path and the
    /// byte offset of the first offending character for parse failures —
    /// when either file is unreadable or the fingerprints diverge.
    pub fn verify_front_text(
        &self,
        design: &str,
        arch: &PlbArchitecture,
        config: &FlowConfig,
        params: &DesignParams,
    ) -> Result<u64, FlowError> {
        let path = self.front_text_path(design, arch.name());
        let text = std::fs::read_to_string(&path).map_err(|e| FlowError::Checkpoint {
            path: path.clone(),
            offset: 0,
            detail: format!("read failed: {e}"),
        })?;
        let doc = vpga_interchange::vxdl::parse(&text).map_err(|e| FlowError::Checkpoint {
            path: path.clone(),
            offset: e.byte_offset(&text).unwrap_or(0),
            detail: e.to_string(),
        })?;
        let text_fp = vpga_interchange::snapshot_fingerprint(&doc.netlist, &doc.placement);
        // Compare against the binary checkpoint's state.
        let (netlist, placement) =
            self.read_front_snapshot(design, arch, config, params, "verify")?;
        let bin_fp = vpga_interchange::snapshot_fingerprint(&netlist, &placement);
        if text_fp != bin_fp {
            return Err(FlowError::Checkpoint {
                path,
                offset: 0,
                detail: format!(
                    "text snapshot fingerprint {text_fp:#018x} != binary {bin_fp:#018x}"
                ),
            });
        }
        Ok(text_fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip_exactly() {
        let s = StageStats::new(StageId::Place, std::time::Duration::from_millis(7), 10, 20)
            .with_cost(3.5, 1.25)
            .with_moves(100, 40)
            .with_bbox_updates(880, 17)
            .with_reroutes(36, 30)
            .with_retries(2)
            .with_sta(1, 9, 123)
            .with_cache(4, 1, 2);
        // Every optional field is set, so a codec that drops or reorders
        // one cannot round-trip.
        assert!(!format!("{s:?}").contains("None"));
        let mut w = Writer::new();
        encode_stats(&mut w, &s);
        let bytes = w.into_bytes();
        let back = decode_stats(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn result_round_trip_exactly() {
        let result = FlowResult {
            variant: FlowVariant::B,
            die_area: 123.456,
            avg_top10_slack: -1.5,
            worst_slack: -3.25,
            critical_delay: 450.0,
            wirelength: 9876.5,
            power_mw: 1.75,
            cells: 321,
            array: Some((4, 5, 17)),
            route_overflow: 0,
            stages: vec![StageStats::new(
                StageId::Route,
                std::time::Duration::ZERO,
                1,
                2,
            )],
        };
        let mut w = Writer::new();
        encode_result(&mut w, &result);
        let bytes = w.into_bytes();
        let back = decode_result(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.fingerprint(), result.fingerprint());
        assert_eq!(back.array, result.array);
    }

    #[test]
    fn corrupt_and_mismatched_files_fail_closed() {
        let dir = std::env::temp_dir().join(format!("vpga-ckpt-test-{}", std::process::id()));
        let store = CheckpointStore::new(&dir, true).unwrap();
        let params = DesignParams::tiny();
        let config = FlowConfig::default();
        let arch = PlbArchitecture::granular();
        // Nothing on disk.
        assert!(store
            .load_result("alu", &arch, FlowVariant::A, &config, &params)
            .is_none());
        // A valid write loads back...
        let result = FlowResult {
            variant: FlowVariant::A,
            die_area: 1.0,
            avg_top10_slack: 0.0,
            worst_slack: 0.0,
            critical_delay: 0.0,
            wirelength: 0.0,
            power_mw: 0.0,
            cells: 1,
            array: None,
            route_overflow: 0,
            stages: Vec::new(),
        };
        store.save_result("alu", &arch, &config, &params, &result);
        assert!(store
            .load_result("alu", &arch, FlowVariant::A, &config, &params)
            .is_some());
        // ...but not under different design parameters (config mismatch)...
        assert!(store
            .load_result(
                "alu",
                &arch,
                FlowVariant::A,
                &config,
                &DesignParams::small()
            )
            .is_none());
        // ...and not under a different fabric of the same name.
        let widened = PlbArchitecture::granular_variant("granular", 3, 1, 1, 1);
        assert!(store
            .load_result("alu", &widened, FlowVariant::A, &config, &params)
            .is_none());
        // ...and not from a file written under the previous format
        // version, whose stats records had a different layout.
        let path = store.result_path("alu", "granular", FlowVariant::A);
        let valid = std::fs::read(&path).unwrap();
        let mut old = valid.clone();
        old[..8].copy_from_slice(b"VPGACKP1");
        std::fs::write(&path, &old).unwrap();
        assert!(store
            .load_result("alu", &arch, FlowVariant::A, &config, &params)
            .is_none());
        // ...and not once the payload is corrupted.
        let mut bytes = valid;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store
            .load_result("alu", &arch, FlowVariant::A, &config, &params)
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
