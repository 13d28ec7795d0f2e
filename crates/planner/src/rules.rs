//! Logical optimizer rules.
//!
//! Five rewrites run in order:
//! 1. **Constant folding** — evaluate constant subexpressions via the shared
//!    evaluator, so folding can never disagree with runtime semantics.
//! 2. **Predicate pushdown** — move filters through projections, joins, and
//!    aggregates down into scans; equality conjuncts across a cross join are
//!    promoted to hash-join keys (this is what turns `FROM a, b WHERE a.x =
//!    b.y` into an equi-join).
//! 3. **Projection pruning** — narrow every scan to the columns actually
//!    used, which directly reduces bytes scanned (and therefore the bill).
//! 4. **Join reordering** — flatten inner-join spines and rebuild them
//!    greedily smallest-estimated-intermediate-first, using the
//!    statistics-based estimator in `crate::cost`.
//! 5. **Build-side selection** — put the smaller estimated input on the
//!    build side of each inner hash join (falling back to schema byte width
//!    when no statistics exist).

use crate::binder::collect_conjuncts;
use crate::cost::{estimate_logical, EstMode};
use crate::eval::{eval_expr, NoRow};
use crate::expr::BoundExpr;
use crate::logical::LogicalPlan;
use pixels_sql::ast::{BinaryOp, JoinType};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Run the full rule pipeline.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    optimize_with(plan, EstMode::Normal)
}

/// Run the full rule pipeline with an explicit estimate mode. Differential
/// tests pass [`EstMode::Inverted`] to prove that adversarially wrong
/// estimates can slow a plan down but never change its results or bills.
pub fn optimize_with(plan: LogicalPlan, mode: EstMode) -> LogicalPlan {
    let plan = fold_plan(plan);
    let plan = pushdown(plan, Vec::new());
    let plan = prune(plan);
    let plan = reorder_joins(plan, mode);
    choose_build_side_with(plan, mode)
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold constant subexpressions in every expression of the plan.
pub fn fold_plan(plan: LogicalPlan) -> LogicalPlan {
    map_expressions(plan, &fold_expr)
}

/// Fold one expression bottom-up. Subtrees that fail to evaluate (e.g. 1/0)
/// are left alone so the error surfaces at runtime, where SQL says it should.
pub fn fold_expr(e: &BoundExpr) -> BoundExpr {
    // Recurse first.
    let e = match e {
        BoundExpr::BinaryOp {
            left,
            op,
            right,
            data_type,
        } => BoundExpr::BinaryOp {
            left: Box::new(fold_expr(left)),
            op: *op,
            right: Box::new(fold_expr(right)),
            data_type: *data_type,
        },
        BoundExpr::Negate(x) => BoundExpr::Negate(Box::new(fold_expr(x))),
        BoundExpr::Not(x) => BoundExpr::Not(Box::new(fold_expr(x))),
        BoundExpr::ScalarFn {
            func,
            args,
            data_type,
        } => BoundExpr::ScalarFn {
            func: *func,
            args: args.iter().map(fold_expr).collect(),
            data_type: *data_type,
        },
        BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(fold_expr(expr)),
            negated: *negated,
        },
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(fold_expr(expr)),
            list: list.iter().map(fold_expr).collect(),
            negated: *negated,
        },
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: Box::new(fold_expr(expr)),
            pattern: Box::new(fold_expr(pattern)),
            negated: *negated,
        },
        BoundExpr::Case {
            operand,
            branches,
            else_expr,
            data_type,
        } => BoundExpr::Case {
            operand: operand.as_ref().map(|o| Box::new(fold_expr(o))),
            branches: branches
                .iter()
                .map(|(w, t)| (fold_expr(w), fold_expr(t)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(fold_expr(x))),
            data_type: *data_type,
        },
        BoundExpr::Cast { expr, to } => BoundExpr::Cast {
            expr: Box::new(fold_expr(expr)),
            to: *to,
        },
        leaf => leaf.clone(),
    };
    if e.is_constant() && !matches!(e, BoundExpr::Literal(_)) {
        if let Ok(v) = eval_expr(&e, &NoRow) {
            return BoundExpr::Literal(v);
        }
    }
    e
}

/// Apply `f` to every expression in the plan.
fn map_expressions(plan: LogicalPlan, f: &impl Fn(&BoundExpr) -> BoundExpr) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            database,
            table,
            table_schema,
            stats,
            paths,
            projection,
            filters,
            output_schema,
        } => LogicalPlan::Scan {
            database,
            table,
            table_schema,
            stats,
            paths,
            projection,
            filters: filters.iter().map(f).collect(),
            output_schema,
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(map_expressions(*input, f)),
            predicate: f(&predicate),
        },
        LogicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => LogicalPlan::Project {
            input: Box::new(map_expressions(*input, f)),
            exprs: exprs.iter().map(f).collect(),
            output_schema,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => LogicalPlan::Join {
            left: Box::new(map_expressions(*left, f)),
            right: Box::new(map_expressions(*right, f)),
            join_type,
            left_keys: left_keys.iter().map(f).collect(),
            right_keys: right_keys.iter().map(f).collect(),
            residual: residual.as_ref().map(f),
            output_schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            output_schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(map_expressions(*input, f)),
            group_exprs: group_exprs.iter().map(f).collect(),
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.as_ref().map(f);
                    a
                })
                .collect(),
            output_schema,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(map_expressions(*input, f)),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(map_expressions(*input, f)),
            keys: keys.iter().map(|(e, asc)| (f(e), *asc)).collect(),
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(map_expressions(*input, f)),
            limit,
            offset,
        },
        LogicalPlan::Values { schema, rows } => LogicalPlan::Values {
            schema,
            rows: rows
                .into_iter()
                .map(|row| row.iter().map(f).collect())
                .collect(),
        },
    }
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Replace output-column references in `pred` with the projection's
/// expressions, re-rooting the predicate below the projection.
fn substitute(pred: &BoundExpr, exprs: &[BoundExpr]) -> BoundExpr {
    match pred {
        BoundExpr::ColumnRef { index, .. } => exprs[*index].clone(),
        other => {
            // Rebuild with substituted children. map_columns cannot express
            // expression substitution, so recurse manually via a clone-and-
            // replace on each variant.
            match other {
                BoundExpr::Literal(_) => other.clone(),
                BoundExpr::BinaryOp {
                    left,
                    op,
                    right,
                    data_type,
                } => BoundExpr::BinaryOp {
                    left: Box::new(substitute(left, exprs)),
                    op: *op,
                    right: Box::new(substitute(right, exprs)),
                    data_type: *data_type,
                },
                BoundExpr::Negate(x) => BoundExpr::Negate(Box::new(substitute(x, exprs))),
                BoundExpr::Not(x) => BoundExpr::Not(Box::new(substitute(x, exprs))),
                BoundExpr::ScalarFn {
                    func,
                    args,
                    data_type,
                } => BoundExpr::ScalarFn {
                    func: *func,
                    args: args.iter().map(|a| substitute(a, exprs)).collect(),
                    data_type: *data_type,
                },
                BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                    expr: Box::new(substitute(expr, exprs)),
                    negated: *negated,
                },
                BoundExpr::InList {
                    expr,
                    list,
                    negated,
                } => BoundExpr::InList {
                    expr: Box::new(substitute(expr, exprs)),
                    list: list.iter().map(|a| substitute(a, exprs)).collect(),
                    negated: *negated,
                },
                BoundExpr::Like {
                    expr,
                    pattern,
                    negated,
                } => BoundExpr::Like {
                    expr: Box::new(substitute(expr, exprs)),
                    pattern: Box::new(substitute(pattern, exprs)),
                    negated: *negated,
                },
                BoundExpr::Case {
                    operand,
                    branches,
                    else_expr,
                    data_type,
                } => BoundExpr::Case {
                    operand: operand.as_ref().map(|o| Box::new(substitute(o, exprs))),
                    branches: branches
                        .iter()
                        .map(|(w, t)| (substitute(w, exprs), substitute(t, exprs)))
                        .collect(),
                    else_expr: else_expr.as_ref().map(|x| Box::new(substitute(x, exprs))),
                    data_type: *data_type,
                },
                BoundExpr::Cast { expr, to } => BoundExpr::Cast {
                    expr: Box::new(substitute(expr, exprs)),
                    to: *to,
                },
                BoundExpr::ColumnRef { .. } => unreachable!(),
            }
        }
    }
}

/// Push `preds` (conjuncts over `plan`'s output schema) as deep as possible.
fn pushdown(plan: LogicalPlan, mut preds: Vec<BoundExpr>) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            collect_conjuncts(predicate, &mut preds);
            pushdown(*input, preds)
        }
        LogicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => {
            let lowered: Vec<BoundExpr> = preds.iter().map(|p| substitute(p, &exprs)).collect();
            LogicalPlan::Project {
                input: Box::new(pushdown(*input, lowered)),
                exprs,
                output_schema,
            }
        }
        LogicalPlan::Scan {
            database,
            table,
            table_schema,
            stats,
            paths,
            projection,
            mut filters,
            output_schema,
        } => {
            filters.extend(preds);
            LogicalPlan::Scan {
                database,
                table,
                table_schema,
                stats,
                paths,
                projection,
                filters,
                output_schema,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            mut join_type,
            mut left_keys,
            mut right_keys,
            residual,
            output_schema,
        } => {
            let left_width = left.schema().len();
            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut kept = Vec::new();
            if let Some(r) = residual {
                collect_conjuncts(r, &mut preds);
            }
            for p in preds {
                let cols = p.referenced_columns();
                let all_left = cols.iter().all(|&c| c < left_width);
                let all_right = cols.iter().all(|&c| c >= left_width);
                let can_push_left = all_left
                    && !cols.is_empty()
                    && matches!(
                        join_type,
                        JoinType::Inner | JoinType::Cross | JoinType::Left
                    );
                let can_push_right = all_right
                    && !cols.is_empty()
                    && matches!(
                        join_type,
                        JoinType::Inner | JoinType::Cross | JoinType::Right
                    );
                if can_push_left {
                    left_preds.push(p);
                } else if can_push_right {
                    right_preds.push(p.map_columns(&|i| i - left_width));
                } else if matches!(join_type, JoinType::Inner | JoinType::Cross) {
                    // Promote cross-side equality conjuncts to join keys.
                    if let BoundExpr::BinaryOp {
                        left: l,
                        op: BinaryOp::Eq,
                        right: r,
                        ..
                    } = &p
                    {
                        let lc = l.referenced_columns();
                        let rc = r.referenced_columns();
                        let l_left = !lc.is_empty() && lc.iter().all(|&c| c < left_width);
                        let l_right = !lc.is_empty() && lc.iter().all(|&c| c >= left_width);
                        let r_left = !rc.is_empty() && rc.iter().all(|&c| c < left_width);
                        let r_right = !rc.is_empty() && rc.iter().all(|&c| c >= left_width);
                        if l_left && r_right {
                            left_keys.push((**l).clone());
                            right_keys.push(r.map_columns(&|i| i - left_width));
                            join_type = JoinType::Inner;
                            continue;
                        }
                        if l_right && r_left {
                            left_keys.push((**r).clone());
                            right_keys.push(l.map_columns(&|i| i - left_width));
                            join_type = JoinType::Inner;
                            continue;
                        }
                    }
                    kept.push(p);
                } else {
                    kept.push(p);
                }
            }
            if join_type == JoinType::Cross && !left_keys.is_empty() {
                join_type = JoinType::Inner;
            }
            let residual = kept.into_iter().reduce(|a, b| BoundExpr::BinaryOp {
                left: Box::new(a),
                op: BinaryOp::And,
                right: Box::new(b),
                data_type: pixels_common::DataType::Boolean,
            });
            LogicalPlan::Join {
                left: Box::new(pushdown(*left, left_preds)),
                right: Box::new(pushdown(*right, right_preds)),
                join_type,
                left_keys,
                right_keys,
                residual,
                output_schema,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            output_schema,
        } => {
            // Predicates over group columns can move below the aggregation.
            let n_groups = group_exprs.len();
            let (push, keep): (Vec<_>, Vec<_>) = preds
                .into_iter()
                .partition(|p| p.referenced_columns().iter().all(|&c| c < n_groups));
            let lowered: Vec<BoundExpr> =
                push.iter().map(|p| substitute(p, &group_exprs)).collect();
            let node = LogicalPlan::Aggregate {
                input: Box::new(pushdown(*input, lowered)),
                group_exprs,
                aggs,
                output_schema,
            };
            wrap_filters(node, keep)
        }
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(pushdown(*input, preds)),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(pushdown(*input, preds)),
            keys,
        },
        // A filter must NOT move below LIMIT (it would change which rows the
        // limit keeps), so remaining predicates stay above.
        node @ LogicalPlan::Limit { .. } => {
            let LogicalPlan::Limit {
                input,
                limit,
                offset,
            } = node
            else {
                unreachable!()
            };
            let inner = LogicalPlan::Limit {
                input: Box::new(pushdown(*input, Vec::new())),
                limit,
                offset,
            };
            wrap_filters(inner, preds)
        }
        node @ LogicalPlan::Values { .. } => wrap_filters(node, preds),
    }
}

fn wrap_filters(plan: LogicalPlan, preds: Vec<BoundExpr>) -> LogicalPlan {
    preds.into_iter().fold(plan, |p, pred| LogicalPlan::Filter {
        input: Box::new(p),
        predicate: pred,
    })
}

// ---------------------------------------------------------------------------
// Projection pruning
// ---------------------------------------------------------------------------

/// Narrow every scan to the columns the query actually uses.
pub fn prune(plan: LogicalPlan) -> LogicalPlan {
    let width = plan.schema().len();
    let required: Vec<usize> = (0..width).collect();
    prune_node(plan, &required).0
}

/// Returns the rewritten plan and a mapping `old output index -> new output
/// index` (defined for at least the requested indices).
fn prune_node(plan: LogicalPlan, required: &[usize]) -> (LogicalPlan, Vec<usize>) {
    match plan {
        LogicalPlan::Scan {
            database,
            table,
            table_schema,
            stats,
            paths,
            projection,
            filters,
            ..
        } => {
            // Columns needed: requested outputs plus filter references (all
            // in current-output coordinates).
            let mut needed: BTreeSet<usize> = required.iter().copied().collect();
            for fexpr in &filters {
                needed.extend(fexpr.referenced_columns());
            }
            let mut needed: Vec<usize> = needed.into_iter().collect();
            // A scan must keep at least one column or row counts are lost
            // (e.g. `SELECT COUNT(*)`): keep the narrowest column.
            if needed.is_empty() && !projection.is_empty() {
                let cheapest = projection
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| table_schema.field(t).data_type.byte_width())
                    .map(|(i, _)| i)
                    .unwrap();
                needed.push(cheapest);
            }
            // Translate to table coordinates through the current projection.
            let new_projection: Vec<usize> = needed.iter().map(|&i| projection[i]).collect();
            let mut mapping = vec![usize::MAX; projection.len()];
            for (new_idx, &old_idx) in needed.iter().enumerate() {
                mapping[old_idx] = new_idx;
            }
            let filters = filters
                .iter()
                .map(|fx| fx.map_columns(&|i| mapping[i]))
                .collect();
            let output_schema = Arc::new(table_schema.project(&new_projection));
            (
                LogicalPlan::Scan {
                    database,
                    table,
                    table_schema,
                    stats,
                    paths,
                    projection: new_projection,
                    filters,
                    output_schema,
                },
                mapping,
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut needed: BTreeSet<usize> = required.iter().copied().collect();
            needed.extend(predicate.referenced_columns());
            let needed: Vec<usize> = needed.into_iter().collect();
            let (new_input, mapping) = prune_node(*input, &needed);
            let predicate = predicate.map_columns(&|i| mapping[i]);
            (
                LogicalPlan::Filter {
                    input: Box::new(new_input),
                    predicate,
                },
                mapping,
            )
        }
        LogicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => {
            // Only required output expressions survive.
            let kept: Vec<usize> = {
                let mut k: Vec<usize> = required.to_vec();
                k.sort_unstable();
                k.dedup();
                k
            };
            // With no output left, the projection goes: a batch of zero
            // columns holds zero rows, while the input, pruned to nothing,
            // keeps the row count (a scan keeps one column).
            if kept.is_empty() {
                let (new_input, _) = prune_node(*input, &[]);
                return (new_input, vec![usize::MAX; exprs.len()]);
            }
            let mut needed: BTreeSet<usize> = BTreeSet::new();
            for &i in &kept {
                needed.extend(exprs[i].referenced_columns());
            }
            let needed: Vec<usize> = needed.into_iter().collect();
            let (new_input, child_map) = prune_node(*input, &needed);
            let mut mapping = vec![usize::MAX; exprs.len()];
            let mut new_exprs = Vec::with_capacity(kept.len());
            let mut fields = Vec::with_capacity(kept.len());
            for (new_idx, &old_idx) in kept.iter().enumerate() {
                mapping[old_idx] = new_idx;
                new_exprs.push(exprs[old_idx].map_columns(&|i| child_map[i]));
                fields.push(output_schema.field(old_idx).clone());
            }
            (
                LogicalPlan::Project {
                    input: Box::new(new_input),
                    exprs: new_exprs,
                    output_schema: Arc::new(pixels_common::Schema::new(fields)),
                },
                mapping,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => {
            let left_width = left.schema().len();
            let mut left_needed: BTreeSet<usize> = BTreeSet::new();
            let mut right_needed: BTreeSet<usize> = BTreeSet::new();
            for &i in required {
                if i < left_width {
                    left_needed.insert(i);
                } else {
                    right_needed.insert(i - left_width);
                }
            }
            for k in &left_keys {
                left_needed.extend(k.referenced_columns());
            }
            for k in &right_keys {
                right_needed.extend(k.referenced_columns());
            }
            if let Some(r) = &residual {
                for c in r.referenced_columns() {
                    if c < left_width {
                        left_needed.insert(c);
                    } else {
                        right_needed.insert(c - left_width);
                    }
                }
            }
            let left_needed: Vec<usize> = left_needed.into_iter().collect();
            let right_needed: Vec<usize> = right_needed.into_iter().collect();
            let (new_left, lmap) = prune_node(*left, &left_needed);
            let (new_right, rmap) = prune_node(*right, &right_needed);
            let new_left_width = new_left.schema().len();
            let mut mapping = vec![usize::MAX; output_schema.len()];
            for &old in &left_needed {
                mapping[old] = lmap[old];
            }
            for &old in &right_needed {
                mapping[left_width + old] = new_left_width + rmap[old];
            }
            let left_keys = left_keys
                .iter()
                .map(|k| k.map_columns(&|i| lmap[i]))
                .collect();
            let right_keys = right_keys
                .iter()
                .map(|k| k.map_columns(&|i| rmap[i]))
                .collect();
            let residual = residual.map(|r| r.map_columns(&|i| mapping[i]));
            let new_schema = Arc::new(LogicalPlan::join_schema(
                &new_left.schema(),
                &new_right.schema(),
                join_type,
            ));
            (
                LogicalPlan::Join {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    join_type,
                    left_keys,
                    right_keys,
                    residual,
                    output_schema: new_schema,
                },
                mapping,
            )
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            output_schema,
        } => {
            // Keep all aggregate outputs; prune only below.
            let mut needed: BTreeSet<usize> = BTreeSet::new();
            for g in &group_exprs {
                needed.extend(g.referenced_columns());
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    needed.extend(arg.referenced_columns());
                }
            }
            let needed: Vec<usize> = needed.into_iter().collect();
            let (new_input, child_map) = prune_node(*input, &needed);
            let group_exprs: Vec<BoundExpr> = group_exprs
                .iter()
                .map(|g| g.map_columns(&|i| child_map[i]))
                .collect();
            let aggs = aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(|arg| arg.map_columns(&|i| child_map[i]));
                    a
                })
                .collect();
            let mapping: Vec<usize> = (0..output_schema.len()).collect();
            (
                LogicalPlan::Aggregate {
                    input: Box::new(new_input),
                    group_exprs,
                    aggs,
                    output_schema,
                },
                mapping,
            )
        }
        LogicalPlan::Distinct { input } => {
            // DISTINCT compares whole rows: every column of the input is
            // semantically required.
            let width = input.schema().len();
            let all: Vec<usize> = (0..width).collect();
            let (new_input, mapping) = prune_node(*input, &all);
            (
                LogicalPlan::Distinct {
                    input: Box::new(new_input),
                },
                mapping,
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let mut needed: BTreeSet<usize> = required.iter().copied().collect();
            for (k, _) in &keys {
                needed.extend(k.referenced_columns());
            }
            let needed: Vec<usize> = needed.into_iter().collect();
            let (new_input, mapping) = prune_node(*input, &needed);
            let keys = keys
                .iter()
                .map(|(k, asc)| (k.map_columns(&|i| mapping[i]), *asc))
                .collect();
            (
                LogicalPlan::Sort {
                    input: Box::new(new_input),
                    keys,
                },
                mapping,
            )
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let (new_input, mapping) = prune_node(*input, required);
            (
                LogicalPlan::Limit {
                    input: Box::new(new_input),
                    limit,
                    offset,
                },
                mapping,
            )
        }
        node @ LogicalPlan::Values { .. } => {
            let width = node.schema().len();
            (node, (0..width).collect())
        }
    }
}

// ---------------------------------------------------------------------------
// Join reordering
// ---------------------------------------------------------------------------

/// One base relation of a flattened join spine: the subtree plus the column
/// range `[offset, offset + width)` it occupied in the original in-order
/// (left-deep) column numbering.
struct SpineLeaf {
    plan: LogicalPlan,
    offset: usize,
    width: usize,
}

/// An equality predicate usable as a hash-join edge between two leaves.
/// Expressions are in global (flattened) column coordinates.
struct JoinEdge {
    a: usize,
    b: usize,
    a_expr: BoundExpr,
    b_expr: BoundExpr,
}

/// Reorder spines of inner/cross joins smallest-intermediate-first.
///
/// The spine is flattened into base relations and a global predicate pool
/// (join keys and residuals, rebased to the concatenated column space), then
/// rebuilt greedily: start from the cheapest joinable pair, then repeatedly
/// join in the connected leaf that minimizes the estimated intermediate
/// result. A final projection restores the original column order, so parent
/// operators — and results — are unaffected by the internal order.
pub fn reorder_joins(plan: LogicalPlan, mode: EstMode) -> LogicalPlan {
    let is_spine = matches!(
        plan,
        LogicalPlan::Join {
            join_type: JoinType::Inner | JoinType::Cross,
            ..
        }
    );
    if !is_spine || count_spine_leaves(&plan) < 3 {
        return map_children(plan, |c| reorder_joins(c, mode));
    }
    let output_schema = plan.schema();
    let mut raw_leaves = Vec::new();
    let mut pool = Vec::new();
    flatten_spine(plan, 0, &mut raw_leaves, &mut pool);
    // Reorder any join spines nested below the leaves first.
    let leaves: Vec<SpineLeaf> = raw_leaves
        .into_iter()
        .map(|(p, offset)| {
            let width = p.schema().len();
            SpineLeaf {
                plan: reorder_joins(p, mode),
                offset,
                width,
            }
        })
        .collect();

    // Classify the pool: two-sided equality conjuncts become edges, the rest
    // stay residual predicates attached once all referenced leaves joined.
    let leaf_of = |cols: &[usize]| -> Option<usize> {
        let mut leaf = None;
        for &c in cols {
            let l = leaves
                .iter()
                .position(|s| c >= s.offset && c < s.offset + s.width)?;
            match leaf {
                None => leaf = Some(l),
                Some(p) if p != l => return None,
                _ => {}
            }
        }
        leaf
    };
    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut residuals: Vec<(BoundExpr, u64)> = Vec::new();
    let leaf_mask = |expr: &BoundExpr| -> u64 {
        expr.referenced_columns()
            .iter()
            .filter_map(|&c| {
                leaves
                    .iter()
                    .position(|s| c >= s.offset && c < s.offset + s.width)
            })
            .fold(0u64, |m, l| m | (1 << l))
    };
    for pred in pool {
        let mut conjuncts = Vec::new();
        collect_conjuncts(pred, &mut conjuncts);
        for c in conjuncts {
            if let BoundExpr::BinaryOp {
                left,
                op: BinaryOp::Eq,
                right,
                ..
            } = &c
            {
                let (la, lb) = (
                    leaf_of(&left.referenced_columns()),
                    leaf_of(&right.referenced_columns()),
                );
                if let (Some(a), Some(b)) = (la, lb) {
                    if a != b && !left.is_constant() && !right.is_constant() {
                        edges.push(JoinEdge {
                            a,
                            b,
                            a_expr: (**left).clone(),
                            b_expr: (**right).clone(),
                        });
                        continue;
                    }
                }
            }
            let mask = leaf_mask(&c);
            residuals.push((c, mask));
        }
    }

    // Greedy rebuild. `pos[g]` maps a global column to its position in the
    // current intermediate plan.
    let total: usize = leaves.iter().map(|s| s.width).sum();
    let score = |p: &LogicalPlan| mode.rows(estimate_logical(p).rows);
    let n = leaves.len();
    let mut used = vec![false; n];

    // Seed: the edge-connected pair with the smallest estimated join, or the
    // two smallest leaves if the spine has no equality edges at all.
    let mut best: Option<(f64, usize, usize)> = None;
    let has_edge = |i: usize, j: usize| {
        edges
            .iter()
            .any(|e| (e.a, e.b) == (i, j) || (e.a, e.b) == (j, i))
    };
    for i in 0..n {
        for j in 0..n {
            if i == j || (!edges.is_empty() && !has_edge(i, j)) {
                continue;
            }
            let (candidate, _) = join_leaf(
                leaves[i].plan.clone(),
                &pos_for(&leaves, &[i]),
                &leaves[j],
                j,
                &edges,
                &[i],
            );
            let s = score(&candidate);
            if best.is_none_or(|(b, ..)| s < b) {
                best = Some((s, i, j));
            }
        }
    }
    let (_, first, second) = best.expect("spine has at least three leaves");
    let mut order = vec![first];
    let mut pos = pos_for(&leaves, &order);
    used[first] = true;
    let (mut cur, new_pos) = join_leaf(
        leaves[first].plan.clone(),
        &pos,
        &leaves[second],
        second,
        &edges,
        &order,
    );
    pos = new_pos;
    order.push(second);
    used[second] = true;

    loop {
        cur = attach_residuals(cur, &pos, &mut residuals, &order, &leaves);
        if order.len() == n {
            break;
        }
        let connected: Vec<usize> = (0..n)
            .filter(|&k| !used[k])
            .filter(|&k| {
                edges.iter().any(|e| {
                    (order.contains(&e.a) && e.b == k) || (order.contains(&e.b) && e.a == k)
                })
            })
            .collect();
        let candidates = if connected.is_empty() {
            (0..n).filter(|&k| !used[k]).collect()
        } else {
            connected
        };
        let mut best: Option<(f64, usize)> = None;
        for &k in &candidates {
            let (candidate, _) = join_leaf(cur.clone(), &pos, &leaves[k], k, &edges, &order);
            let s = score(&candidate);
            if best.is_none_or(|(b, _)| s < b) {
                best = Some((s, k));
            }
        }
        let (_, k) = best.expect("unjoined leaves remain");
        let (next, new_pos) = join_leaf(cur, &pos, &leaves[k], k, &edges, &order);
        cur = next;
        pos = new_pos;
        order.push(k);
        used[k] = true;
    }

    // Restore the original column order (and exact output schema).
    let exprs: Vec<BoundExpr> = (0..total)
        .map(|g| {
            let f = output_schema.field(g);
            BoundExpr::column(
                pos[g].expect("every global column placed"),
                f.data_type,
                f.name.clone(),
            )
        })
        .collect();
    LogicalPlan::Project {
        input: Box::new(cur),
        exprs,
        output_schema,
    }
}

/// Number of base relations in the inner/cross join spine rooted here.
fn count_spine_leaves(plan: &LogicalPlan) -> usize {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner | JoinType::Cross,
            ..
        } => count_spine_leaves(left) + count_spine_leaves(right),
        _ => 1,
    }
}

/// Flatten the spine in-order: leaves keep their original global column
/// offsets; keys and residuals are rebased into global coordinates.
fn flatten_spine(
    plan: LogicalPlan,
    base: usize,
    leaves: &mut Vec<(LogicalPlan, usize)>,
    pool: &mut Vec<BoundExpr>,
) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner | JoinType::Cross,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let lw = left.schema().len();
            for (lk, rk) in left_keys.iter().zip(&right_keys) {
                let l = lk.map_columns(&|i| i + base);
                let r = rk.map_columns(&|i| i + base + lw);
                pool.push(BoundExpr::BinaryOp {
                    left: Box::new(l),
                    op: BinaryOp::Eq,
                    right: Box::new(r),
                    data_type: pixels_common::DataType::Boolean,
                });
            }
            if let Some(res) = residual {
                pool.push(res.map_columns(&|i| i + base));
            }
            flatten_spine(*left, base, leaves, pool);
            flatten_spine(*right, base + lw, leaves, pool);
        }
        other => leaves.push((other, base)),
    }
}

/// Column map for a single starting leaf.
fn pos_for(leaves: &[SpineLeaf], order: &[usize]) -> Vec<Option<usize>> {
    let total: usize = leaves.iter().map(|s| s.width).sum();
    let mut pos = vec![None; total];
    let mut next = 0;
    for &l in order {
        for c in 0..leaves[l].width {
            pos[leaves[l].offset + c] = Some(next);
            next += 1;
        }
    }
    pos
}

/// Join leaf `k` onto `cur` as the right side, consuming every edge between
/// the joined set and `k`. Returns the new plan and updated column map.
fn join_leaf(
    cur: LogicalPlan,
    pos: &[Option<usize>],
    leaf: &SpineLeaf,
    k: usize,
    edges: &[JoinEdge],
    order: &[usize],
) -> (LogicalPlan, Vec<Option<usize>>) {
    let lw = cur.schema().len();
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    for e in edges {
        let (joined_expr, leaf_expr) = if order.contains(&e.a) && e.b == k {
            (&e.a_expr, &e.b_expr)
        } else if order.contains(&e.b) && e.a == k {
            (&e.b_expr, &e.a_expr)
        } else {
            continue;
        };
        left_keys.push(joined_expr.map_columns(&|g| pos[g].expect("joined column placed")));
        right_keys.push(leaf_expr.map_columns(&|g| g - leaf.offset));
    }
    let join_type = if left_keys.is_empty() {
        JoinType::Cross
    } else {
        JoinType::Inner
    };
    let schema = Arc::new(LogicalPlan::join_schema(
        &cur.schema(),
        &leaf.plan.schema(),
        join_type,
    ));
    let joined = LogicalPlan::Join {
        left: Box::new(cur),
        right: Box::new(leaf.plan.clone()),
        join_type,
        left_keys,
        right_keys,
        residual: None,
        output_schema: schema,
    };
    let mut new_pos = pos.to_vec();
    for c in 0..leaf.width {
        new_pos[leaf.offset + c] = Some(lw + c);
    }
    (joined, new_pos)
}

/// Attach every pooled residual whose referenced leaves are all joined.
fn attach_residuals(
    mut cur: LogicalPlan,
    pos: &[Option<usize>],
    residuals: &mut Vec<(BoundExpr, u64)>,
    order: &[usize],
    _leaves: &[SpineLeaf],
) -> LogicalPlan {
    let joined_mask: u64 = order.iter().fold(0, |m, &l| m | (1 << l));
    let mut rest = Vec::new();
    for (pred, mask) in residuals.drain(..) {
        if mask & !joined_mask == 0 {
            let mapped = pred.map_columns(&|g| pos[g].expect("residual column placed"));
            cur = LogicalPlan::Filter {
                input: Box::new(cur),
                predicate: mapped,
            };
        } else {
            rest.push((pred, mask));
        }
    }
    *residuals = rest;
    cur
}

// ---------------------------------------------------------------------------
// Build-side selection
// ---------------------------------------------------------------------------

/// For inner equi-joins, make the smaller estimated input (as `mode` reads
/// the estimates) the right (build) side: the executor always builds its
/// hash table on the right input. When either side lacks real statistics
/// (`reliable == false`), the decision falls back to the schema byte-width
/// heuristic: build on the narrower side.
pub fn choose_build_side_with(plan: LogicalPlan, mode: EstMode) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => {
            let left = Box::new(choose_build_side_with(*left, mode));
            let right = Box::new(choose_build_side_with(*right, mode));
            let l_est = estimate_logical(&left);
            let r_est = estimate_logical(&right);
            let swap = if l_est.reliable && r_est.reliable {
                mode.rows(l_est.rows) < mode.rows(r_est.rows)
            } else {
                left.schema().row_byte_width() < right.schema().row_byte_width()
            };
            if swap {
                // Swap sides; remap residual column indices, then restore the
                // original output column order with a projection so parent
                // expressions stay valid.
                let lw = left.schema().len();
                let rw = right.schema().len();
                let residual =
                    residual.map(|r| r.map_columns(&|i| if i < lw { i + rw } else { i - lw }));
                let swapped_schema = Arc::new(LogicalPlan::join_schema(
                    &right.schema(),
                    &left.schema(),
                    JoinType::Inner,
                ));
                let swapped = LogicalPlan::Join {
                    left: right,
                    right: left,
                    join_type: JoinType::Inner,
                    left_keys: right_keys,
                    right_keys: left_keys,
                    residual,
                    output_schema: swapped_schema.clone(),
                };
                // Original column i lives at swapped position rw + i (left
                // side) or i - lw (right side).
                let exprs: Vec<BoundExpr> = (0..lw + rw)
                    .map(|i| {
                        let j = if i < lw { rw + i } else { i - lw };
                        BoundExpr::column(
                            j,
                            swapped_schema.field(j).data_type,
                            swapped_schema.field(j).name.clone(),
                        )
                    })
                    .collect();
                LogicalPlan::Project {
                    input: Box::new(swapped),
                    exprs,
                    output_schema,
                }
            } else {
                LogicalPlan::Join {
                    left,
                    right,
                    join_type: JoinType::Inner,
                    left_keys,
                    right_keys,
                    residual,
                    output_schema,
                }
            }
        }
        other => map_children(other, |c| choose_build_side_with(c, mode)),
    }
}

fn map_children(plan: LogicalPlan, f: impl Fn(LogicalPlan) -> LogicalPlan + Copy) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        LogicalPlan::Project {
            input,
            exprs,
            output_schema,
        } => LogicalPlan::Project {
            input: Box::new(f(*input)),
            exprs,
            output_schema,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            join_type,
            left_keys,
            right_keys,
            residual,
            output_schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            output_schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(f(*input)),
            group_exprs,
            aggs,
            output_schema,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(f(*input)),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(f(*input)),
            keys,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(f(*input)),
            limit,
            offset,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
    }
}
