//! Simulator configuration, defaulting to the paper's machine (§3).

use tracefill_core::config::{ClusterConfig, FillConfig, TraceCacheConfig};
use tracefill_core::QuarantineConfig;
use tracefill_isa::op::OpKind;
use tracefill_uarch::bias::BiasConfig;
use tracefill_uarch::hierarchy::HierarchyConfig;
use tracefill_uarch::indirect::TargetBufferConfig;
use tracefill_uarch::pht::PredictorConfig;

/// Execution latencies by operation class, in cycles.
///
/// Loads pay `load_agen` for address generation plus the data-cache access
/// latency from the memory hierarchy; everything else is a fixed count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Integer ALU (including scaled adds, which stay single-cycle — the
    /// paper bounds the extra ALU path to ~2 gate delays).
    pub int_alu: u32,
    /// Shifts.
    pub shift: u32,
    /// Multiplies.
    pub mul: u32,
    /// Divides.
    pub div: u32,
    /// Conditional branches and jumps.
    pub branch: u32,
    /// Address generation for loads and stores.
    pub agen: u32,
}

impl Default for LatencyConfig {
    fn default() -> LatencyConfig {
        LatencyConfig {
            int_alu: 1,
            shift: 1,
            mul: 3,
            div: 12,
            branch: 1,
            agen: 1,
        }
    }
}

impl LatencyConfig {
    /// Every field with its name.
    pub(crate) fn fields(&self) -> [(&'static str, u32); 6] {
        [
            ("int_alu", self.int_alu),
            ("shift", self.shift),
            ("mul", self.mul),
            ("div", self.div),
            ("branch", self.branch),
            ("agen", self.agen),
        ]
    }

    /// Latency of a non-memory operation class.
    pub fn of(&self, kind: OpKind) -> u32 {
        match kind {
            OpKind::IntAlu => self.int_alu,
            OpKind::Shift => self.shift,
            OpKind::Mul => self.mul,
            OpKind::Div => self.div,
            OpKind::CondBranch | OpKind::Jump => self.branch,
            OpKind::Load | OpKind::Store => self.agen,
            OpKind::System => 1,
        }
    }
}

/// Self-repair: divergence containment and the pass-quarantine ladder.
///
/// When enabled, an oracle divergence (or a strict-verify failure at the
/// fill boundary) no longer aborts the run: the machine squashes in-flight
/// state, restores architectural state from the interpreter-verified
/// retirement point, invalidates the offending trace-cache segment, and
/// resumes through the conventional fetch path. Repeat offenders climb the
/// escalation ladder (see [`tracefill_core::quarantine`]) at the
/// thresholds in `ladder`. Disabled by default; a disabled machine is
/// bit-for-bit identical to one built before self-repair existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairConfig {
    /// Master switch.
    pub enabled: bool,
    /// The escalation ladder's thresholds.
    pub ladder: QuarantineConfig,
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Instructions fetched per cycle from the trace cache (paper: 16).
    pub fetch_width: usize,
    /// Reservation station entries per functional unit (paper: 32).
    pub rs_per_fu: usize,
    /// Physical registers.
    pub phys_regs: usize,
    /// Maximum live checkpoints (in-flight conditional branches and
    /// indirect jumps).
    pub max_checkpoints: usize,
    /// Checkpoints creatable per cycle (paper: 3, one per block).
    pub checkpoints_per_cycle: usize,
    /// Extra cycles to forward a value to another cluster (paper: 1).
    pub cross_cluster_latency: u32,
    /// Inactive issue of non-matching trace blocks (paper baseline: on).
    pub inactive_issue: bool,
    /// Cluster geometry (paper: 4 clusters of 4 universal FUs).
    pub clusters: ClusterConfig,
    /// Execution latencies.
    pub latency: LatencyConfig,
    /// Cache/memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Multiple-branch predictor.
    pub predictor: PredictorConfig,
    /// Bias table / promotion.
    pub bias: BiasConfig,
    /// Return address stack depth.
    pub ras_depth: usize,
    /// Indirect-target buffer.
    pub target_buffer: TargetBufferConfig,
    /// Trace cache geometry.
    pub tcache: TraceCacheConfig,
    /// Fill unit (including the optimization switches).
    pub fill: FillConfig,
    /// Check every retirement against the functional oracle (cheap; leave
    /// on outside of benchmarking hot loops). On divergence the run aborts
    /// with a structured
    /// [`DivergenceReport`](crate::oracle::DivergenceReport), unless
    /// `self_repair` contains it.
    pub oracle_check: bool,
    /// Deterministic fault schedule to execute during the run (`None` for
    /// a clean run). See [`crate::inject`].
    pub fault_plan: Option<crate::inject::FaultPlan>,
    /// Pipeline event-trace depth: keep the most recent N events in
    /// [`Simulator::trace`](crate::Simulator::trace) (0 disables tracing).
    pub trace_depth: usize,
    /// Collect the segment lifetime ledger
    /// ([`Simulator::ledger`](crate::Simulator::ledger)): per-segment
    /// build/insert/hit/retire/evict attribution. Purely observational —
    /// enabling it never changes timing — and zero-cost when off.
    pub ledger: bool,
    /// Self-repair on divergence (see [`RepairConfig`]). Off by default.
    pub self_repair: RepairConfig,
}

impl Default for SimConfig {
    /// The paper's machine with all fill-unit optimizations off.
    fn default() -> SimConfig {
        SimConfig {
            fetch_width: 16,
            rs_per_fu: 32,
            phys_regs: 1024,
            max_checkpoints: 64,
            checkpoints_per_cycle: 3,
            cross_cluster_latency: 1,
            inactive_issue: true,
            clusters: ClusterConfig::default(),
            latency: LatencyConfig::default(),
            hierarchy: HierarchyConfig::default(),
            predictor: PredictorConfig::default(),
            bias: BiasConfig::default(),
            ras_depth: 32,
            target_buffer: TargetBufferConfig::default(),
            tcache: TraceCacheConfig::default(),
            // Oracle runs (the default) also verify every optimized
            // segment in release builds; raw-throughput campaigns turn
            // both off together.
            fill: FillConfig {
                strict_verify: true,
                ..FillConfig::default()
            },
            oracle_check: true,
            fault_plan: None,
            trace_depth: 0,
            ledger: false,
            self_repair: RepairConfig::default(),
        }
    }
}

impl SimConfig {
    /// Total functional units.
    pub fn num_fus(&self) -> usize {
        self.clusters.total_slots()
    }

    /// The paper's baseline with a given set of fill-unit optimizations.
    pub fn with_opts(opts: tracefill_core::config::OptConfig) -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.fill.opts = opts;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_shape() {
        let c = SimConfig::default();
        assert_eq!(c.num_fus(), 16);
        assert_eq!(c.rs_per_fu, 32);
        assert_eq!(c.checkpoints_per_cycle, 3);
        assert_eq!(c.cross_cluster_latency, 1);
        assert!(c.inactive_issue);
    }

    #[test]
    fn latency_table() {
        let l = LatencyConfig::default();
        assert_eq!(l.of(OpKind::IntAlu), 1);
        assert_eq!(l.of(OpKind::Div), 12);
        assert_eq!(l.of(OpKind::Load), 1); // agen; cache latency is separate
    }
}
