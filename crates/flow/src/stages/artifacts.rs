//! Typed artifact stores for the front-end and back-end stage graphs.

use vpga_compact::CompactionReport;
use vpga_netlist::Netlist;
use vpga_pack::PlbArray;
use vpga_place::{BufferEdit, PlaceConfig, Placement};
use vpga_route::RoutingResult;
use vpga_timing::{IncrementalSta, TimingReport};

use super::{lib_cells, ArtifactKind, ArtifactStore};
use crate::config::FlowVariant;
use crate::pipeline::{FlowResult, FrontEnd};
use crate::stats::StageStats;

/// The front-end's artifact store: each slot is filled by exactly one
/// stage (synth → netlist, compact → summary, place → placement + timing
/// graph + weighted config, physsynth → buffer trace) and read by the
/// stages downstream of it. A checkpoint serializes the filled slots; a
/// resumed run restores them and re-enters the graph mid-plan.
pub(crate) struct FrontArtifacts {
    pub(crate) design: String,
    pub(crate) gates_nand2: f64,
    pub(crate) compaction: Option<CompactionReport>,
    pub(crate) netlist: Option<Netlist>,
    pub(crate) placement: Option<Placement>,
    /// The criticality-weighted place config the refinement passes share
    /// (placement's winning seed plus STA-derived net weights).
    pub(crate) weighted: Option<PlaceConfig>,
    pub(crate) sta: Option<IncrementalSta>,
    pub(crate) buffer_trace: Option<Vec<BufferEdit>>,
}

impl FrontArtifacts {
    pub(crate) fn new(design: &str) -> FrontArtifacts {
        FrontArtifacts {
            design: design.to_owned(),
            gates_nand2: 0.0,
            compaction: None,
            netlist: None,
            placement: None,
            weighted: None,
            sta: None,
            buffer_trace: None,
        }
    }

    /// Seals the completed store into the immutable [`FrontEnd`] both
    /// variant back-ends share.
    pub(crate) fn into_front_end(self, stages: Vec<StageStats>) -> FrontEnd {
        let netlist = self.netlist.expect("front-end graph completed: netlist");
        let placement = self
            .placement
            .expect("front-end graph completed: placement");
        let sta = self.sta.expect("front-end graph completed: timing graph");
        let cells = lib_cells(&netlist);
        FrontEnd {
            design: self.design,
            gates_nand2: self.gates_nand2,
            compaction: self.compaction,
            netlist,
            placement,
            sta,
            cells,
            stages,
        }
    }
}

impl ArtifactStore for FrontArtifacts {
    fn has(&self, kind: ArtifactKind) -> bool {
        match kind {
            ArtifactKind::MappedNetlist => self.netlist.is_some(),
            ArtifactKind::CompactionSummary => self.compaction.is_some(),
            ArtifactKind::Placement => self.placement.is_some(),
            ArtifactKind::TimingGraph => self.sta.is_some(),
            ArtifactKind::BufferTrace => self.buffer_trace.is_some(),
            ArtifactKind::PackedArray | ArtifactKind::Routing | ArtifactKind::TimingReport => false,
        }
    }
}

/// A back-end's artifact store: the shared, immutable front-end fans in
/// by reference, and the variant's own products (packed array and packed
/// placement for flow b, routing and timing for both) fill in behind it.
pub(crate) struct BackArtifacts<'f> {
    pub(crate) front: &'f FrontEnd,
    /// Flow b's own placement copy, quantized by packing and annealed by
    /// the swapper (flow a routes the front-end placement directly).
    pub(crate) b_placement: Option<Placement>,
    pub(crate) array: Option<PlbArray>,
    pub(crate) routing: Option<RoutingResult>,
    pub(crate) sta_report: Option<TimingReport>,
    pub(crate) power_mw: Option<f64>,
}

impl<'f> BackArtifacts<'f> {
    pub(crate) fn new(front: &'f FrontEnd) -> BackArtifacts<'f> {
        BackArtifacts {
            front,
            b_placement: None,
            array: None,
            routing: None,
            sta_report: None,
            power_mw: None,
        }
    }

    /// The placement this variant routes and times: the shared front-end
    /// placement for flow a, the packed copy for flow b.
    pub(crate) fn routing_placement(&self, variant: FlowVariant) -> &Placement {
        match variant {
            FlowVariant::A => &self.front.placement,
            FlowVariant::B => self
                .b_placement
                .as_ref()
                .expect("flow b routes after packing"),
        }
    }

    /// Seals the completed store into the variant's [`FlowResult`].
    pub(crate) fn into_result(self, variant: FlowVariant, stages: Vec<StageStats>) -> FlowResult {
        let routing = self.routing.expect("back-end graph completed: routing");
        let sta = self
            .sta_report
            .expect("back-end graph completed: timing report");
        let power_mw = self.power_mw.expect("back-end graph completed: power");
        let (die_area, array) = match variant {
            FlowVariant::A => (self.front.placement.die().area(), None),
            FlowVariant::B => {
                let array = self.array.as_ref().expect("flow b packed an array");
                (
                    array.die_area(),
                    Some((array.cols(), array.rows(), array.plbs_used())),
                )
            }
        };
        FlowResult {
            variant,
            die_area,
            avg_top10_slack: sta.avg_top_slack(10),
            worst_slack: sta.worst_slack(),
            critical_delay: sta.critical_delay(),
            wirelength: routing.total_length(),
            power_mw,
            cells: self.front.cells,
            array,
            route_overflow: routing.overflow_edges(),
            stages,
        }
    }
}

impl ArtifactStore for BackArtifacts<'_> {
    fn has(&self, kind: ArtifactKind) -> bool {
        match kind {
            // The shared front-end artifacts are always present by
            // construction.
            ArtifactKind::MappedNetlist | ArtifactKind::Placement | ArtifactKind::TimingGraph => {
                true
            }
            ArtifactKind::CompactionSummary => self.front.compaction.is_some(),
            ArtifactKind::BufferTrace => false,
            ArtifactKind::PackedArray => self.array.is_some(),
            ArtifactKind::Routing => self.routing.is_some(),
            ArtifactKind::TimingReport => self.sta_report.is_some(),
        }
    }
}
