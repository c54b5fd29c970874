//! Property-based tests (proptest) over the core invariants.

use proptest::prelude::*;
use vpga::core::{matcher, PlbArchitecture};
use vpga::logic::{npn, s3, Tt3, Var};
use vpga::netlist::library::generic;
use vpga::netlist::{NetId, Netlist};
use vpga::synth::map_netlist_fast;

proptest! {
    /// NPN canonicalization: the stored transform always reproduces the
    /// canonical representative, and equivalence is transitive through it.
    #[test]
    fn npn_transform_is_consistent(bits in 0u8..=255) {
        let t = Tt3::new(bits);
        let (canon, tr) = npn::canonicalize3(t);
        prop_assert_eq!(tr.apply(t), canon);
        let (canon2, _) = npn::canonicalize3(canon);
        prop_assert_eq!(canon, canon2, "canonical form is a fixed point");
    }

    /// Shannon cofactoring reconstructs every function around every pivot.
    #[test]
    fn cofactor_reconstruction(bits in 0u8..=255, v in 0usize..3) {
        let t = Tt3::new(bits);
        let var = Var::from_index(v).unwrap();
        let (g, h) = t.cofactors(var);
        prop_assert_eq!(Tt3::from_cofactors(var, g, h), t);
    }

    /// S3 feasibility matches its defining property: both cofactors w.r.t.
    /// the select must avoid XOR/XNOR.
    #[test]
    fn s3_definition(bits in 0u8..=255) {
        let t = Tt3::new(bits);
        let (g, h) = t.cofactors(s3::SELECT);
        prop_assert_eq!(
            s3::s3_feasible(t),
            !g.is_xor_like() && !h.is_xor_like()
        );
    }

    /// Any matched cell really computes the target function under its pin
    /// binding and configuration.
    #[test]
    fn matcher_matches_are_sound(bits in 0u8..=255) {
        let t = Tt3::new(bits);
        let arch = PlbArchitecture::granular();
        for name in ["MUX", "XOA", "ND3", "ND2"] {
            let cell = arch.library().cell_by_name(name).unwrap();
            if let Some(m) = matcher::match_cell(cell, t, 3) {
                let pins: Vec<Tt3> = m.pins.iter().map(|p| p.tt()).collect();
                prop_assert_eq!(matcher::compose(m.config, &pins), t);
            }
        }
    }

    /// Every covering granular configuration realizes its functions
    /// correctly (sampled).
    #[test]
    fn config_realizations_are_sound(bits in 0u8..=255) {
        let t = Tt3::new(bits);
        let arch = PlbArchitecture::granular();
        for cfg in arch.configs() {
            if cfg.functions().contains(t) {
                let r = cfg.realize(t, arch.library());
                prop_assert!(r.is_some(), "{} covers {} but cannot realize it", cfg.name(), t);
                prop_assert_eq!(r.unwrap().output_function(), t);
            }
        }
    }
}

/// Strategy: a random combinational netlist over the generic library.
fn arbitrary_netlist() -> impl Strategy<Value = Netlist> {
    // A sequence of gate choices; each gate picks fanins among prior nets.
    let gate_names = prop::sample::select(vec![
        "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "MUX2", "MAJ3", "XOR3", "AOI21", "INV",
    ]);
    (
        2usize..5,
        prop::collection::vec((gate_names, any::<u64>()), 3..30),
    )
        .prop_map(|(n_inputs, gates)| {
            let lib = generic::library();
            let mut n = Netlist::new("random");
            let mut nets: Vec<NetId> = (0..n_inputs)
                .map(|i| n.add_input(format!("i{i}")))
                .collect();
            for (ix, (gate, seed)) in gates.into_iter().enumerate() {
                let arity = lib.cell_by_name(gate).unwrap().arity();
                let pins: Vec<NetId> = (0..arity)
                    .map(|k| nets[(seed as usize + k * 7919) % nets.len()])
                    .collect();
                let out = n
                    .add_lib_cell(format!("g{ix}"), &lib, gate, &pins)
                    .expect("valid gate");
                nets.push(out);
            }
            n.add_output("y", *nets.last().unwrap());
            // A second output deep in the middle exercises multi-output
            // cones.
            n.add_output("z", nets[nets.len() / 2]);
            n
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Technology mapping preserves the function of arbitrary netlists on
    /// both architectures (exhaustive simulation up to 2^n input vectors,
    /// capped).
    #[test]
    fn mapping_preserves_random_netlists(netlist in arbitrary_netlist()) {
        let src = generic::library();
        let n_in = netlist.inputs().len();
        let vectors: Vec<Vec<bool>> = (0..(1u32 << n_in).min(32))
            .map(|m| (0..n_in).map(|i| (m >> i) & 1 == 1).collect())
            .collect();
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            let mut mapped = map_netlist_fast(&netlist, &src, &arch).unwrap();
            vpga::compact::compact(&mut mapped, &arch).unwrap();
            let div = vpga::netlist::sim::first_divergence(
                &netlist, &src, &mapped, arch.library(), &vectors,
            )
            .unwrap();
            prop_assert_eq!(div, None, "diverges on {}", arch.name());
        }
    }
}

mod physical_properties {
    use super::*;
    use vpga::netlist::CellClass;
    use vpga::pack::PackConfig;
    use vpga::place::PlaceConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Packing a random mapped netlist always yields a legal array:
        /// every cell seated, every PLB within capacity, every group whole.
        #[test]
        fn packing_is_always_legal(netlist in arbitrary_netlist(), seed in 0u64..1000) {
            let src = generic::library();
            let arch = PlbArchitecture::granular();
            let mut mapped = map_netlist_fast(&netlist, &src, &arch).unwrap();
            vpga::compact::compact(&mut mapped, &arch).unwrap();
            let place_cfg = PlaceConfig { seed, ..PlaceConfig::default() };
            let (placement, _) =
                vpga::place::place(&mapped, arch.library(), &place_cfg).expect("placeable");
            let (array, _) =
                vpga::pack::pack(&mapped, &arch, &placement, &PackConfig::default(), None)
                    .expect("packable");
            let lib_cells = mapped.cells().filter(|(_, c)| c.lib_id().is_some()).count();
            prop_assert_eq!(array.num_assigned(), lib_cells);
            for col in 0..array.cols() {
                for row in 0..array.rows() {
                    for class in CellClass::PLB_CLASSES {
                        prop_assert!(
                            array.plb(col, row).used(class) <= arch.capacity().count(class)
                        );
                    }
                }
            }
            let mut groups: std::collections::HashMap<_, std::collections::HashSet<usize>> =
                std::collections::HashMap::new();
            for (id, cell) in mapped.cells() {
                if let (Some(g), Some(p)) = (cell.group(), array.plb_of(id)) {
                    groups.entry(g).or_default().insert(p);
                }
            }
            for homes in groups.values() {
                prop_assert_eq!(homes.len(), 1);
            }
        }

        /// Routing a random placed netlist converges to a legal solution
        /// with the default channel capacity, and every inter-tile net gets
        /// a length of at least its tile-quantized manhattan bound.
        #[test]
        fn routing_is_legal_and_lower_bounded(netlist in arbitrary_netlist(), seed in 0u64..1000) {
            let src = generic::library();
            let place_cfg = PlaceConfig { seed, ..PlaceConfig::default() };
            let (placement, _) = vpga::place::place(&netlist, &src, &place_cfg).expect("placeable");
            let cfg = vpga::route::RouteConfig::default();
            let result = vpga::route::route(&netlist, &placement, &cfg).expect("routable");
            prop_assert_eq!(result.overflow_edges(), 0);
            let tile = result.tile_size();
            for net in netlist.nets() {
                let len = result.net_length(net);
                if len == 0.0 {
                    continue;
                }
                // Lower bound: manhattan distance between driver and the
                // farthest sink, minus tile quantization slack.
                let Some(driver) = netlist.driver(net) else { continue };
                let Some((dx, dy)) = placement.position(driver) else { continue };
                let far = netlist
                    .sinks(net)
                    .iter()
                    .filter_map(|&(c, _)| placement.position(c))
                    .map(|(x, y)| (x - dx).abs() + (y - dy).abs())
                    .fold(0.0f64, f64::max);
                prop_assert!(
                    len + 2.0 * tile >= far - 2.0 * tile,
                    "net routed {len} vs manhattan {far} (tile {tile})"
                );
            }
        }

        /// The fabric program of any packed netlist reconstructs to a
        /// functionally identical design.
        #[test]
        fn fabric_program_roundtrips(netlist in arbitrary_netlist()) {
            let src = generic::library();
            let arch = PlbArchitecture::lut_based();
            let mut mapped = map_netlist_fast(&netlist, &src, &arch).unwrap();
            vpga::compact::compact(&mut mapped, &arch).unwrap();
            let (placement, _) = vpga::place::place(&mapped, arch.library(), &PlaceConfig::default())
                .expect("placeable");
            let (array, _) =
                vpga::pack::pack(&mapped, &arch, &placement, &PackConfig::default(), None)
                    .expect("packable");
            let program = vpga::fabric::FabricProgram::generate(&mapped, &arch, &array)
                .expect("programmable");
            let rebuilt = program.reconstruct(&mapped, &arch).expect("reconstructs");
            let n_in = mapped.inputs().len();
            let vectors: Vec<Vec<bool>> = (0..(1u32 << n_in).min(16))
                .map(|m| (0..n_in).map(|i| (m >> i) & 1 == 1).collect())
                .collect();
            let div = vpga::netlist::sim::first_divergence(
                &mapped, arch.library(), &rebuilt, arch.library(), &vectors,
            )
            .unwrap();
            prop_assert_eq!(div, None);
        }

        /// The binary wire-snapshot codec is a bit-exact round trip: a
        /// decoded netlist + placement re-encode to identical bytes, and
        /// the interchange snapshot fingerprint is stable across the
        /// trip (the invariant the `.vxdl` codec and the checkpoint
        /// migration path both build on).
        #[test]
        fn wire_snapshot_roundtrip_is_bit_exact(netlist in arbitrary_netlist(), util in 3u32..9) {
            use vpga::netlist::wire::{Reader, Writer};
            let lib = generic::library();
            let placement =
                vpga::place::Placement::initial(&netlist, &lib, f64::from(util) / 10.0);
            let mut w = Writer::new();
            netlist.encode_snapshot(&mut w);
            placement.encode_snapshot(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let n2 = Netlist::decode_snapshot(&mut r).expect("netlist decodes");
            let p2 = vpga::place::Placement::decode_snapshot(&mut r).expect("placement decodes");
            prop_assert!(r.done(), "trailing bytes after decode");
            let mut w2 = Writer::new();
            n2.encode_snapshot(&mut w2);
            p2.encode_snapshot(&mut w2);
            prop_assert_eq!(&w2.into_bytes(), &bytes, "re-encode differs");
            prop_assert_eq!(
                vpga::interchange::snapshot_fingerprint(&netlist, &placement),
                vpga::interchange::snapshot_fingerprint(&n2, &p2)
            );
        }

        /// Verilog round-trips preserve function for arbitrary netlists.
        #[test]
        fn verilog_roundtrip_preserves_function(netlist in arbitrary_netlist()) {
            let src = generic::library();
            let text = vpga::netlist::io::write_verilog(&netlist, &src).unwrap();
            let back = vpga::netlist::io::read_verilog(&text, &src).unwrap();
            let n_in = netlist.inputs().len();
            let vectors: Vec<Vec<bool>> = (0..(1u32 << n_in).min(16))
                .map(|m| (0..n_in).map(|i| (m >> i) & 1 == 1).collect())
                .collect();
            let div = vpga::netlist::sim::first_divergence(
                &netlist, &src, &back, &src, &vectors,
            )
            .unwrap();
            prop_assert_eq!(div, None);
        }
    }
}

/// Properties of the parallel flow executor and its per-stage
/// instrumentation (`vpga::flow::exec` / `vpga::flow::stats`).
mod executor_properties {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    use proptest::prelude::*;
    use vpga::core::PlbArchitecture;
    use vpga::designs::{DesignParams, NamedDesign};
    use vpga::flow::{
        Executor, FlowConfig, FlowError, FlowJob, FlowMatrix, FlowVariant, JobResult, MatrixRun,
        StageId,
    };

    /// Runs `matrix` at tiny size on `workers`, failing on the first
    /// failed cell.
    fn run_tiny(matrix: &FlowMatrix, workers: usize) -> Result<Vec<JobResult>, FlowError> {
        matrix
            .run_cells(
                &DesignParams::tiny(),
                &FlowConfig::default(),
                &Executor::new(workers),
                None,
            )
            .into_iter()
            .collect()
    }

    /// The full tiny-size matrix, computed once and shared across cases
    /// (each case below only *reads* stage records, which is cheap).
    fn tiny_matrix_results() -> &'static [JobResult] {
        static CACHE: OnceLock<Vec<JobResult>> = OnceLock::new();
        CACHE.get_or_init(|| {
            run_tiny(&MatrixRun::default().flow_matrix(), 2).expect("tiny matrix runs")
        })
    }

    /// The four (variant × arch) jobs for one design.
    fn alu_jobs() -> Vec<FlowJob> {
        let mut jobs = Vec::new();
        for arch in [PlbArchitecture::granular(), PlbArchitecture::lut_based()] {
            for variant in [FlowVariant::A, FlowVariant::B] {
                jobs.push(FlowJob {
                    design: NamedDesign::Alu,
                    arch: arch.clone(),
                    variant,
                });
            }
        }
        jobs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The executor invokes every job index exactly once and returns
        /// results in input order, for any (n, workers) combination —
        /// nothing dropped, nothing duplicated.
        #[test]
        fn executor_runs_each_job_exactly_once(n in 0usize..48, workers in 0usize..9) {
            let exec = Executor::new(workers);
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = exec.run(n, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i * 31 + 7
            });
            prop_assert_eq!(out.len(), n);
            for (i, v) in out.iter().enumerate() {
                prop_assert_eq!(calls[i].load(Ordering::Relaxed), 1, "job {} run count", i);
                prop_assert_eq!(*v, i * 31 + 7);
            }
        }

        /// Every stage record of every matrix run is internally
        /// consistent: positive sizes, non-negative wall time, accepted ≤
        /// attempted, finite costs, and cost-after ≤ cost-before for the
        /// annealing stages (which restore their best/starting state).
        #[test]
        fn stage_stats_are_internally_consistent(pick in 0usize..16) {
            let results = tiny_matrix_results();
            let jr = &results[pick % results.len()];
            for s in jr.front_stages.iter().chain(&jr.result.stages) {
                prop_assert!(s.cells > 0, "{}: no cells", s.stage);
                prop_assert!(s.nets > 0, "{}: no nets", s.stage);
                prop_assert!(s.wall.as_secs_f64() >= 0.0);
                if let (Some(att), Some(acc)) = (s.moves_attempted, s.moves_accepted) {
                    prop_assert!(acc <= att, "{}: accepted {} > attempted {}", s.stage, acc, att);
                }
                if let (Some(before), Some(after)) = (s.cost_before, s.cost_after) {
                    prop_assert!(before.is_finite() && after.is_finite());
                    if matches!(s.stage, StageId::Place | StageId::PhysSynth | StageId::Swap) {
                        prop_assert!(
                            after <= before + 1e-9,
                            "{}: cost worsened {} -> {}", s.stage, before, after
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Arbitrary job subsets (any order, duplicates allowed) complete
        /// without panics, return one result per job in order, and every
        /// result matches the full-matrix run of the same job bit for bit.
        /// (Case count kept small: every case runs real flow jobs.)
        #[test]
        fn arbitrary_job_subsets_run_cleanly(mask in 1u16..4096, workers in 1usize..5) {
            let pool = alu_jobs();
            // Draw up to 12 job picks (2 bits each → 4 choices) from the
            // mask so duplicates and arbitrary orders occur naturally.
            let n_picks = 1 + (mask as usize % 5);
            let jobs: Vec<FlowJob> = (0..n_picks)
                .map(|k| pool[(mask as usize >> (2 * k)) % pool.len()].clone())
                .collect();
            let expect: Vec<u64> = jobs
                .iter()
                .map(|j| {
                    tiny_matrix_results()
                        .iter()
                        .find(|r| {
                            r.job.design == j.design
                                && r.job.arch.name() == j.arch.name()
                                && r.job.variant == j.variant
                        })
                        .expect("job is in the full matrix")
                        .result
                        .fingerprint()
                })
                .collect();
            let out = run_tiny(&FlowMatrix::from_jobs(jobs), workers).expect("subset runs");
            prop_assert_eq!(out.len(), expect.len());
            for (r, want) in out.iter().zip(&expect) {
                prop_assert_eq!(r.result.fingerprint(), *want);
            }
        }
    }
}
