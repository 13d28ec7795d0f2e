//! Plan splitting for adaptive cloud-function acceleration (paper §3.1).
//!
//! When the VM cluster is overloaded and CF acceleration is enabled,
//! Pixels-Turbo pushes the *expensive* operators of a query — table scans,
//! joins, and aggregations — into a sub-plan executed by ephemeral CF
//! workers. The sub-plan's result is materialized to object storage and the
//! top-level plan (the cheap finishing operators: sort, limit, final
//! projection, HAVING filters) reads it back as a materialized view. The
//! split keeps acceleration transparent: the query result is identical
//! either way.

use crate::expr::{AggExpr, BoundExpr};
use crate::plan::Plan;
use crate::rules::map_children;
use pixels_common::SchemaRef;
use pixels_sql::ast::JoinType;

/// The result of splitting a plan for CF execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    /// Expensive subtree to run in cloud functions. Its result is written to
    /// `mv_path`.
    pub sub_plan: Plan,
    /// Remaining top-level plan; reads the materialized view at `mv_path`.
    pub top_plan: Plan,
    /// Object-store path of the materialized intermediate result.
    pub mv_path: String,
}

/// Split `plan` at the topmost expensive operator (scan, join, aggregate).
///
/// Returns `None` for plans with no expensive operator (e.g. `SELECT 1`),
/// which are always executed directly.
pub fn split_for_acceleration(plan: &Plan, mv_path: &str) -> Option<SplitPlan> {
    let (top, sub) = cut(plan.clone(), mv_path);
    sub.map(|sub_plan| SplitPlan {
        sub_plan,
        top_plan: top,
        mv_path: mv_path.to_string(),
    })
}

/// Replace the topmost expensive operator — one of the paper's scans, joins
/// and aggregations — with a `MaterializedScan` of `mv_path`, returning the
/// rest of the plan and the cut-out subtree. Cheap operators above it are
/// unary, so the walk down is one path.
fn cut(plan: Plan, mv_path: &str) -> (Plan, Option<Plan>) {
    if matches!(
        plan,
        Plan::Scan { .. } | Plan::Join { .. } | Plan::Aggregate { .. }
    ) {
        let placeholder = Plan::MaterializedScan {
            path: mv_path.to_string(),
            schema: plan.schema(),
        };
        return (placeholder, Some(plan));
    }
    let mut sub = None;
    let top = map_children(plan, |input| {
        let (top, cut_out) = cut(input, mv_path);
        sub = cut_out;
        top
    });
    (top, sub)
}

/// The shuffled operator at the cut point of a multi-stage CF plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ShuffleKind {
    /// scan → partial aggregate (stage 0, spilled as hash partitions of the
    /// group key) → exchange → final aggregate (stage 1).
    Aggregate {
        input: Box<Plan>,
        group_exprs: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        output_schema: SchemaRef,
    },
    /// Symmetric exchange: both inputs hash-partitioned on their join keys
    /// (stage 0), partitioned hash join per partition pair (stage 1).
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        join_type: JoinType,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        residual: Option<BoundExpr>,
        output_schema: SchemaRef,
    },
}

impl ShuffleKind {
    /// Schema of the shuffled operator's result (what the MV holds).
    pub fn output_schema(&self) -> SchemaRef {
        match self {
            ShuffleKind::Aggregate { output_schema, .. }
            | ShuffleKind::Join { output_schema, .. } => output_schema.clone(),
        }
    }
}

/// A multi-stage CF plan: stage-0 workers execute the shuffled operator's
/// input(s) and spill hash partitions to the object store; stage-1 workers
/// each finish their partition set and materialize the MV at `mv_path`,
/// which `top_plan` then reads like any single-stage split.
#[derive(Debug, Clone, PartialEq)]
pub struct ShufflePlan {
    pub kind: ShuffleKind,
    pub top_plan: Plan,
    pub mv_path: String,
    pub partitions: usize,
    /// Broadcast join: stage 0 spills only the (small) build side as a single
    /// partition; every stage-1 worker reads the whole build spill and probes
    /// with its share of the probe side. Only ever set in auto-sizing mode.
    pub broadcast: bool,
}

/// How to size a multi-stage exchange.
///
/// `fixed(n)` reproduces the historical behavior exactly: `n` symmetric hash
/// partitions, no broadcast, no bytes-based gating. `auto()` derives the
/// exchange strategy and fan-out from the cost model's estimated intermediate
/// bytes against the `AUTO_*` thresholds below. A wrong estimate can only
/// change *how* the query runs (strategy, fan-out), never what it returns or
/// what the user is billed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleSizing {
    /// `Some(n)` pins exactly `n` partitions (legacy behavior); `None`
    /// enables cost-based auto sizing.
    pub fixed_partitions: Option<usize>,
}

/// Auto mode: upper bound on derived partition count.
const AUTO_MAX_PARTITIONS: usize = 16;
/// Auto mode: aim for roughly this many estimated exchange bytes per
/// partition.
const AUTO_TARGET_PARTITION_BYTES: f64 = (32 << 20) as f64;
/// Auto mode: below this many estimated exchange bytes, skip the multi-stage
/// plan entirely (single-stage is cheaper).
const AUTO_MIN_EXCHANGE_BYTES: f64 = (1 << 20) as f64;
/// Auto mode: a reliable build-side estimate at or below this many bytes
/// selects a broadcast join instead of a symmetric exchange.
const AUTO_BROADCAST_MAX_BUILD_BYTES: f64 = (16 << 20) as f64;

impl ShuffleSizing {
    /// Pin exactly `n` symmetric partitions (the pre-cost-model behavior).
    pub fn fixed(n: usize) -> Self {
        ShuffleSizing {
            fixed_partitions: Some(n),
        }
    }

    /// Cost-based sizing.
    pub fn auto() -> Self {
        ShuffleSizing {
            fixed_partitions: None,
        }
    }
}

/// Split `plan` into a two-stage exchange plan with `partitions` hash
/// partitions. Returns `None` when the plan cannot (or should not) shuffle:
/// fewer than two partitions (the single-stage split is bit-identical and
/// cheaper), a cut point that is a bare scan (nothing to exchange), a join
/// without equi-keys, or DISTINCT aggregates (their state does not spill).
pub fn plan_shuffle(plan: &Plan, mv_path: &str, partitions: usize) -> Option<ShufflePlan> {
    if partitions <= 1 {
        return None;
    }
    let (top_plan, sub) = cut(plan.clone(), mv_path);
    let kind = match sub? {
        Plan::Aggregate {
            input,
            group_exprs,
            aggs,
            output_schema,
        } => {
            if aggs.iter().any(|a| a.distinct) {
                return None;
            }
            ShuffleKind::Aggregate {
                input,
                group_exprs,
                aggs,
                output_schema,
            }
        }
        Plan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => {
            if join_type == JoinType::Cross || left_keys.is_empty() {
                return None;
            }
            ShuffleKind::Join {
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                residual,
                output_schema,
            }
        }
        _ => return None,
    };
    Some(ShufflePlan {
        kind,
        top_plan,
        mv_path: mv_path.to_string(),
        partitions,
        broadcast: false,
    })
}

/// Cost-based variant of [`plan_shuffle`]. With `fixed_partitions` set this
/// is exactly `plan_shuffle`; in auto mode the exchange strategy and fan-out
/// are derived from estimated intermediate bytes:
///
/// - an inner join whose build side reliably estimates at or below
///   `AUTO_BROADCAST_MAX_BUILD_BYTES` becomes a broadcast join (one build
///   spill, no probe-side exchange);
/// - exchanges whose total estimated bytes fall below
///   `AUTO_MIN_EXCHANGE_BYTES` are skipped (`None` — single-stage wins at
///   that scale);
/// - otherwise the partition count is
///   `ceil(bytes / AUTO_TARGET_PARTITION_BYTES)` clamped to
///   `[2, AUTO_MAX_PARTITIONS]`.
pub fn plan_shuffle_sized(
    plan: &Plan,
    mv_path: &str,
    sizing: &ShuffleSizing,
) -> Option<ShufflePlan> {
    if let Some(n) = sizing.fixed_partitions {
        return plan_shuffle(plan, mv_path, n);
    }
    // Reuse plan_shuffle's eligibility rules with a placeholder fan-out, then
    // resize (or re-strategize) the eligible plan.
    let mut shuffle = plan_shuffle(plan, mv_path, 2)?;
    let (exchange_bytes, broadcast) = match &shuffle.kind {
        ShuffleKind::Aggregate { input, .. } => {
            let (bytes, _) = crate::cost::estimated_output_bytes(input);
            (bytes, false)
        }
        ShuffleKind::Join {
            left,
            right,
            join_type,
            ..
        } => {
            let (build_bytes, build_reliable) = crate::cost::estimated_output_bytes(right);
            let (probe_bytes, _) = crate::cost::estimated_output_bytes(left);
            let broadcast = *join_type == JoinType::Inner
                && build_reliable
                && build_bytes <= AUTO_BROADCAST_MAX_BUILD_BYTES;
            (build_bytes + probe_bytes, broadcast)
        }
    };
    if broadcast {
        shuffle.partitions = 1;
        shuffle.broadcast = true;
        return Some(shuffle);
    }
    if exchange_bytes < AUTO_MIN_EXCHANGE_BYTES {
        return None;
    }
    let wanted = (exchange_bytes / AUTO_TARGET_PARTITION_BYTES).ceil() as usize;
    shuffle.partitions = wanted.clamp(2, AUTO_MAX_PARTITIONS);
    Some(shuffle)
}
