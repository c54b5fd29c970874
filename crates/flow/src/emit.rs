//! Post-route interchange artifact emission (`--emit-sdf` /
//! `--emit-xdl`).
//!
//! Runs inside the back-end timing stage, after STA: by then the routed
//! geometry, the placement the router saw, and the per-arc delays the
//! analysis folded are all final. Emission only reads stage artifacts —
//! the SDF delays come from [`vpga_timing::arc_delays`], which reads the
//! same net model and cell arcs the STA itself evaluates, so the files
//! annotate the published numbers without perturbing anything.
//! Writes are best-effort like checkpoint writes: a full disk warns and
//! the flow keeps going.

use std::path::Path;

use vpga_interchange::sdf::SdfFile;
use vpga_interchange::vxdl;
use vpga_netlist::{Library, Netlist};
use vpga_place::Placement;
use vpga_route::RoutingResult;

use crate::config::EmitConfig;

fn write_artifact(dir: &Path, file: &str, text: &str) {
    let path = dir.join(file);
    let outcome =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text.as_bytes()));
    if let Err(e) = outcome {
        eprintln!("warning: failed to emit {}: {e}", path.display());
    }
}

/// Emits the requested interchange artifacts for one back-end job.
/// `job` is the `design/arch/variant` context string; the file stem
/// replaces the slashes with dashes.
pub(crate) fn emit_back_artifacts(
    emit: &EmitConfig,
    job: &str,
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    routing: Option<&RoutingResult>,
) {
    let stem = job.replace('/', "-");
    if let Some(dir) = &emit.sdf_dir {
        let arcs = vpga_timing::arc_delays(netlist, lib, placement, routing);
        let sdf = SdfFile::from_timing(netlist, lib, &arcs, job);
        write_artifact(dir, &format!("{stem}.sdf"), &sdf.to_text());
    }
    if let Some(dir) = &emit.xdl_dir {
        let routes: Vec<(u32, Vec<vxdl::Seg>)> = routing
            .map(|r| {
                netlist
                    .nets()
                    .filter_map(|id| {
                        let segs = r.net_route(id)?;
                        Some((id.index() as u32, segs.to_vec()))
                    })
                    .collect()
            })
            .unwrap_or_default();
        write_artifact(
            dir,
            &format!("{stem}.vxdl"),
            &vxdl::encode(netlist, placement, &routes),
        );
    }
}
