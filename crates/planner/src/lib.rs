//! `pixels-planner` — query planning for PixelsDB.
//!
//! Pipeline: `pixels_sql` AST → [`binder::Binder`] (name resolution, type
//! checking) → [`plan::Plan`] → [`rules::optimize`] (constant folding,
//! predicate pushdown, projection pruning, join ordering, build-side
//! selection) → [`plan::create_physical_plan`] (Sort + Limit fused into
//! TopK) → the executor. It is one tree throughout: each operator's schema,
//! children, EXPLAIN line ([`Plan::explain`]) and cardinality rule
//! ([`cost::estimate`]) is written once.
//!
//! [`split::split_for_acceleration`] implements the paper's §3.1 operator
//! pushdown: cutting the expensive subtree (scans, joins, aggregations) out
//! of a plan so cloud-function workers can execute it and materialize the
//! result for the cheap top-level operators.
//!
//! The shared scalar [`eval`] module defines expression semantics once for
//! both the constant folder and the executor.

pub mod binder;
pub mod cost;
pub mod eval;
pub mod expr;
pub mod plan;
pub mod rules;
pub mod split;

pub use binder::Binder;
pub use cost::{estimate, EstMode, NodeEst};
pub use eval::{eval_binary, eval_expr, like_match, NoRow, RowAccess};
pub use expr::{AggExpr, AggFunc, BoundExpr, ScalarFunc};
pub use plan::{create_physical_plan, zone_predicates, Plan, PlanEstimate};
pub use rules::{optimize, optimize_with};
pub use split::{
    plan_shuffle, plan_shuffle_sized, split_for_acceleration, ShuffleKind, ShufflePlan,
    ShuffleSizing, SplitPlan,
};

use pixels_catalog::Catalog;
use pixels_common::Result;

/// Convenience: parse, bind, optimize, and ready a SQL query in one call.
pub fn plan_query(catalog: &Catalog, default_db: &str, sql: &str) -> Result<Plan> {
    let select = pixels_sql::parse_query(sql)?;
    let bound = Binder::new(catalog, default_db).bind_select(&select)?;
    create_physical_plan(&optimize(bound))
}
