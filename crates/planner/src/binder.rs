//! Name resolution and type checking: AST → plan.
//!
//! The binder resolves table names through the catalog, column names through
//! lexical scopes, classifies queries as aggregating or not, and produces a
//! [`Plan`] with fully typed [`BoundExpr`]s.

use crate::expr::{AggExpr, AggFunc, BoundExpr, ScalarFunc};
use crate::plan::{schema_from_exprs, Plan};
use pixels_catalog::Catalog;
use pixels_common::{DataType, Error, Field, Result, Schema, Value};
use pixels_sql::ast::{
    BinaryOp, DateField, Expr, ObjectName, Select, SelectItem, TableExpr, UnaryOp,
};
use std::sync::Arc;

/// One resolvable column in a scope.
#[derive(Debug, Clone)]
struct ScopeColumn {
    qualifier: Option<String>,
    name: String,
    data_type: DataType,
}

/// The set of columns visible to expressions at some point in the query.
#[derive(Debug, Clone, Default)]
struct Scope {
    columns: Vec<ScopeColumn>,
}

impl Scope {
    fn from_schema(schema: &Schema, qualifier: Option<&str>) -> Scope {
        Scope {
            columns: schema
                .fields()
                .iter()
                .map(|f| ScopeColumn {
                    qualifier: qualifier.map(|q| q.to_string()),
                    name: f.name.clone(),
                    data_type: f.data_type,
                })
                .collect(),
        }
    }

    fn join(mut self, other: Scope) -> Scope {
        self.columns.extend(other.columns);
        self
    }

    /// Resolve `[qualifier.]name` to a column index, detecting ambiguity.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, DataType)> {
        let mut found: Option<(usize, DataType)> = None;
        for (i, c) in self.columns.iter().enumerate() {
            let qual_ok = match qualifier {
                None => true,
                Some(q) => c
                    .qualifier
                    .as_deref()
                    .is_some_and(|cq| cq.eq_ignore_ascii_case(q)),
            };
            if qual_ok && c.name.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(Error::Plan(format!("ambiguous column reference: {name}")));
                }
                found = Some((i, c.data_type));
            }
        }
        found.ok_or_else(|| {
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            };
            Error::Plan(format!("column not found: {full}"))
        })
    }
}

/// Binds SELECT statements against a catalog.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    default_database: String,
}

impl<'a> Binder<'a> {
    pub fn new(catalog: &'a Catalog, default_database: impl Into<String>) -> Self {
        Binder {
            catalog,
            default_database: default_database.into(),
        }
    }

    /// Bind a SELECT query to a plan.
    pub fn bind_select(&self, select: &Select) -> Result<Plan> {
        // FROM
        let (mut plan, scope) = match &select.from {
            Some(te) => self.bind_table_expr(te)?,
            None => {
                return self.bind_table_less(select);
            }
        };

        // WHERE
        if let Some(pred) = &select.selection {
            let predicate = self.bind_scalar(pred, &scope)?;
            expect_boolean(&predicate, "WHERE")?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        let is_aggregate = !select.group_by.is_empty()
            || select.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => ast_has_aggregate(expr),
                _ => false,
            })
            || select.having.as_ref().is_some_and(ast_has_aggregate)
            || select.order_by.iter().any(|o| ast_has_aggregate(&o.expr));

        // Expand projection wildcards into (ast, alias) pairs.
        let items = self.expand_projection(select, &scope)?;

        let (mut plan, mut proj_exprs, proj_names) = if is_aggregate {
            self.bind_aggregate_query(select, plan, &scope, &items)?
        } else {
            let mut exprs = Vec::with_capacity(items.len());
            let mut names = Vec::with_capacity(items.len());
            for (ast, alias) in &items {
                let bound = self.bind_scalar(ast, &scope)?;
                names.push(alias.clone().unwrap_or_else(|| display_name(ast)));
                exprs.push(bound);
            }
            (plan, exprs, names)
        };

        let visible = proj_exprs.len();

        // ORDER BY: resolve keys against the projection, appending hidden
        // columns when a key is not part of the select list.
        let mut sort_keys: Vec<(usize, bool)> = Vec::new();
        let mut proj_names = proj_names;
        for item in &select.order_by {
            let idx = self.resolve_order_key(
                &item.expr,
                select,
                &items,
                &scope,
                &mut proj_exprs,
                &mut proj_names,
                is_aggregate,
            )?;
            sort_keys.push((idx, item.asc));
        }

        if select.distinct && proj_exprs.len() != visible {
            return Err(Error::Plan(
                "ORDER BY with DISTINCT must reference the select list".into(),
            ));
        }

        // Project (visible + hidden sort columns).
        let proj_schema = schema_from_exprs(&proj_exprs, &proj_names);
        plan = Plan::Project {
            input: Box::new(plan),
            exprs: proj_exprs,
            output_schema: proj_schema.clone(),
        };

        if select.distinct {
            plan = Plan::Distinct {
                input: Box::new(plan),
            };
        }

        if !sort_keys.is_empty() {
            let keys = sort_keys
                .iter()
                .map(|&(i, asc)| {
                    (
                        BoundExpr::column(
                            i,
                            proj_schema.field(i).data_type,
                            proj_schema.field(i).name.clone(),
                        ),
                        asc,
                    )
                })
                .collect();
            plan = Plan::Sort {
                input: Box::new(plan),
                keys,
            };
        }

        // Trim hidden sort columns.
        if proj_schema.len() != visible {
            let exprs: Vec<BoundExpr> = (0..visible)
                .map(|i| {
                    BoundExpr::column(
                        i,
                        proj_schema.field(i).data_type,
                        proj_schema.field(i).name.clone(),
                    )
                })
                .collect();
            let names: Vec<String> = (0..visible)
                .map(|i| proj_schema.field(i).name.clone())
                .collect();
            let output_schema = schema_from_exprs(&exprs, &names);
            plan = Plan::Project {
                input: Box::new(plan),
                exprs,
                output_schema,
            };
        }

        if select.limit.is_some() || select.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: select.limit,
                offset: select.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }

    /// `SELECT <exprs>` without FROM: a single literal row.
    fn bind_table_less(&self, select: &Select) -> Result<Plan> {
        let scope = Scope::default();
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_scalar(expr, &scope)?;
                    names.push(alias.clone().unwrap_or_else(|| display_name(expr)));
                    exprs.push(bound);
                }
                _ => {
                    return Err(Error::Plan(
                        "wildcard projection requires a FROM clause".into(),
                    ))
                }
            }
        }
        let schema = schema_from_exprs(&exprs, &names);
        let mut plan = Plan::Values {
            schema,
            rows: vec![exprs],
        };
        if select.limit.is_some() || select.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: select.limit,
                offset: select.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }

    fn expand_projection(
        &self,
        select: &Select,
        scope: &Scope,
    ) -> Result<Vec<(Expr, Option<String>)>> {
        let mut items = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for c in &scope.columns {
                        items.push((
                            Expr::Column {
                                qualifier: c.qualifier.clone(),
                                name: c.name.clone(),
                            },
                            Some(c.name.clone()),
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for c in &scope.columns {
                        if c.qualifier
                            .as_deref()
                            .is_some_and(|cq| cq.eq_ignore_ascii_case(q))
                        {
                            items.push((
                                Expr::Column {
                                    qualifier: c.qualifier.clone(),
                                    name: c.name.clone(),
                                },
                                Some(c.name.clone()),
                            ));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(Error::Plan(format!("unknown table alias in {q}.*")));
                    }
                }
                SelectItem::Expr { expr, alias } => items.push((expr.clone(), alias.clone())),
            }
        }
        if items.is_empty() {
            return Err(Error::Plan("empty projection".into()));
        }
        Ok(items)
    }

    /// Resolve an ORDER BY key to an index into the projection, appending a
    /// hidden projection column when the key is not in the select list (only
    /// possible for non-aggregating queries).
    #[allow(clippy::too_many_arguments)]
    fn resolve_order_key(
        &self,
        ast: &Expr,
        _select: &Select,
        items: &[(Expr, Option<String>)],
        scope: &Scope,
        proj_exprs: &mut Vec<BoundExpr>,
        proj_names: &mut Vec<String>,
        is_aggregate: bool,
    ) -> Result<usize> {
        let visible = items.len();
        // 1. Ordinal: ORDER BY 2
        if let Expr::Literal(Value::Int64(n)) = ast {
            let idx = *n as usize;
            if idx == 0 || idx > visible {
                return Err(Error::Plan(format!(
                    "ORDER BY position {idx} is out of range"
                )));
            }
            return Ok(idx - 1);
        }
        // 2. Alias or output-name match.
        if let Expr::Column {
            qualifier: None,
            name,
        } = ast
        {
            for (i, (_, alias)) in items.iter().enumerate() {
                let out_name = alias.as_deref().unwrap_or(proj_names[i].as_str());
                if out_name.eq_ignore_ascii_case(name) {
                    return Ok(i);
                }
            }
        }
        // 3. Expression match against a select item.
        if let Some(i) = items.iter().position(|(e, _)| ast_equal(e, ast)) {
            return Ok(i);
        }
        // 4. Hidden column (non-aggregating queries only).
        if is_aggregate {
            return Err(Error::Plan(format!(
                "ORDER BY expression {ast} must appear in the select list of an aggregate query"
            )));
        }
        let bound = self.bind_scalar(ast, scope)?;
        proj_names.push(format!("__sort_{}", proj_exprs.len()));
        proj_exprs.push(bound);
        Ok(proj_exprs.len() - 1)
    }

    // -- FROM ---------------------------------------------------------------

    fn bind_table_expr(&self, te: &TableExpr) -> Result<(Plan, Scope)> {
        match te {
            TableExpr::Table { name, alias } => self.bind_base_table(name, alias.as_deref()),
            TableExpr::Subquery { query, alias } => {
                let plan = self.bind_select(query)?;
                let scope = Scope::from_schema(&plan.schema(), Some(alias));
                Ok((plan, scope))
            }
            TableExpr::Join {
                left,
                right,
                join_type,
                on,
            } => {
                let (lplan, lscope) = self.bind_table_expr(left)?;
                let (rplan, rscope) = self.bind_table_expr(right)?;
                let left_width = lscope.columns.len();
                let scope = lscope.join(rscope);
                let (left_keys, right_keys, residual) = match on {
                    None => (vec![], vec![], None),
                    Some(on_expr) => {
                        let bound = self.bind_scalar(on_expr, &scope)?;
                        expect_boolean(&bound, "JOIN ON")?;
                        split_join_condition(bound, left_width)?
                    }
                };
                let output_schema = Arc::new(Plan::join_schema(
                    &lplan.schema(),
                    &rplan.schema(),
                    *join_type,
                ));
                let plan = Plan::Join {
                    left: Box::new(lplan),
                    right: Box::new(rplan),
                    join_type: *join_type,
                    left_keys,
                    right_keys,
                    residual,
                    output_schema,
                };
                Ok((plan, scope))
            }
        }
    }

    fn bind_base_table(&self, name: &ObjectName, alias: Option<&str>) -> Result<(Plan, Scope)> {
        let db = name
            .database
            .clone()
            .unwrap_or_else(|| self.default_database.clone());
        let t = self.catalog.get_table(&db, &name.table)?;
        let qualifier = alias.unwrap_or(&name.table);
        let scope = Scope::from_schema(&t.schema, Some(qualifier));
        let projection: Vec<usize> = (0..t.schema.len()).collect();
        let plan = Plan::Scan {
            database: t.database.clone(),
            table: t.name.clone(),
            table_schema: t.schema.clone(),
            stats: t.stats.clone(),
            paths: t.paths.clone(),
            projection,
            filters: vec![],
            output_schema: t.schema.clone(),
        };
        Ok((plan, scope))
    }

    // -- aggregate queries ---------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn bind_aggregate_query(
        &self,
        select: &Select,
        input: Plan,
        scope: &Scope,
        items: &[(Expr, Option<String>)],
    ) -> Result<(Plan, Vec<BoundExpr>, Vec<String>)> {
        // Group expressions (support ordinal references: GROUP BY 1).
        let mut group_asts: Vec<Expr> = Vec::new();
        for g in &select.group_by {
            let ast = match g {
                Expr::Literal(Value::Int64(n)) => {
                    let idx = *n as usize;
                    if idx == 0 || idx > items.len() {
                        return Err(Error::Plan(format!(
                            "GROUP BY position {idx} is out of range"
                        )));
                    }
                    items[idx - 1].0.clone()
                }
                other => other.clone(),
            };
            group_asts.push(ast);
        }
        let group_exprs: Vec<BoundExpr> = group_asts
            .iter()
            .map(|g| self.bind_scalar(g, scope))
            .collect::<Result<_>>()?;

        // Collect aggregates while binding the post-aggregation expressions.
        let mut aggs: Vec<AggExpr> = Vec::new();
        let mut proj_exprs = Vec::with_capacity(items.len());
        let mut proj_names = Vec::with_capacity(items.len());
        for (ast, alias) in items {
            let bound = self.bind_post_agg(ast, &group_asts, &group_exprs, scope, &mut aggs)?;
            proj_names.push(alias.clone().unwrap_or_else(|| display_name(ast)));
            proj_exprs.push(bound);
        }
        let having = select
            .having
            .as_ref()
            .map(|h| self.bind_post_agg(h, &group_asts, &group_exprs, scope, &mut aggs))
            .transpose()?;

        // Aggregate output schema: group columns then aggregates.
        let mut fields = Vec::with_capacity(group_exprs.len() + aggs.len());
        for (i, g) in group_exprs.iter().enumerate() {
            let name = match &group_asts[i] {
                Expr::Column { name, .. } => name.clone(),
                other => display_name(other),
            };
            fields.push(Field::nullable(name, g.data_type()));
        }
        for a in &aggs {
            fields.push(Field::nullable(a.to_string(), a.output_type));
        }
        let output_schema = Arc::new(Schema::new(fields));
        let mut plan = Plan::Aggregate {
            input: Box::new(input),
            group_exprs,
            aggs,
            output_schema,
        };
        if let Some(h) = having {
            expect_boolean(&h, "HAVING")?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate: h,
            };
        }
        Ok((plan, proj_exprs, proj_names))
    }

    /// Bind an expression that is evaluated *after* aggregation: group-by
    /// expressions and aggregate calls become column references into the
    /// Aggregate node's output.
    fn bind_post_agg(
        &self,
        ast: &Expr,
        group_asts: &[Expr],
        group_exprs: &[BoundExpr],
        scope: &Scope,
        aggs: &mut Vec<AggExpr>,
    ) -> Result<BoundExpr> {
        // Whole expression matches a GROUP BY expression?
        if let Some(i) = group_asts.iter().position(|g| ast_equal(g, ast)) {
            return Ok(BoundExpr::column(
                i,
                group_exprs[i].data_type(),
                display_name(ast),
            ));
        }
        // Aggregate call?
        if let Expr::Function {
            name,
            args,
            distinct,
        } = ast
        {
            if let Some(func) = AggFunc::by_name(name) {
                let arg = match args.as_slice() {
                    [Expr::Wildcard] | [] if func == AggFunc::Count => None,
                    [a] => {
                        if ast_has_aggregate(a) {
                            return Err(Error::Plan("nested aggregate functions".into()));
                        }
                        Some(self.bind_scalar(a, scope)?)
                    }
                    _ => return Err(Error::Plan(format!("{name} expects exactly one argument"))),
                };
                let output_type = func.output_type(arg.as_ref().map(|a| a.data_type()))?;
                let agg = AggExpr {
                    func,
                    arg,
                    distinct: *distinct,
                    output_type,
                };
                let idx = match aggs.iter().position(|a| *a == agg) {
                    Some(i) => i,
                    None => {
                        aggs.push(agg.clone());
                        aggs.len() - 1
                    }
                };
                return Ok(BoundExpr::column(
                    group_asts.len() + idx,
                    output_type,
                    agg.to_string(),
                ));
            }
        }
        // Otherwise recurse structurally.
        match ast {
            Expr::Column { qualifier, name } => {
                let full = match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                };
                Err(Error::Plan(format!(
                    "column {full} must appear in GROUP BY or inside an aggregate"
                )))
            }
            Expr::Literal(v) => Ok(BoundExpr::literal(v.clone())),
            Expr::BinaryOp { left, op, right } => {
                let l = self.bind_post_agg(left, group_asts, group_exprs, scope, aggs)?;
                let r = self.bind_post_agg(right, group_asts, group_exprs, scope, aggs)?;
                make_binary(l, *op, r)
            }
            Expr::UnaryOp { op, expr } => {
                let e = self.bind_post_agg(expr, group_asts, group_exprs, scope, aggs)?;
                make_unary(*op, e)
            }
            Expr::Function { name, args, .. } => {
                let func = ScalarFunc::by_name(name)
                    .ok_or_else(|| Error::Plan(format!("unknown function: {name}")))?;
                let bound: Vec<BoundExpr> = args
                    .iter()
                    .map(|a| self.bind_post_agg(a, group_asts, group_exprs, scope, aggs))
                    .collect::<Result<_>>()?;
                make_scalar_fn(func, bound)
            }
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.bind_post_agg(expr, group_asts, group_exprs, scope, aggs)?),
                negated: *negated,
            }),
            Expr::Cast { expr, to } => Ok(BoundExpr::Cast {
                expr: Box::new(self.bind_post_agg(expr, group_asts, group_exprs, scope, aggs)?),
                to: *to,
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // Desugar to comparisons on the post-agg expressions.
                let e = self.bind_post_agg(expr, group_asts, group_exprs, scope, aggs)?;
                let lo = self.bind_post_agg(low, group_asts, group_exprs, scope, aggs)?;
                let hi = self.bind_post_agg(high, group_asts, group_exprs, scope, aggs)?;
                desugar_between(e, lo, hi, *negated)
            }
            other => Err(Error::Plan(format!(
                "unsupported expression after aggregation: {other}"
            ))),
        }
    }

    // -- scalar expression binding -------------------------------------------

    fn bind_scalar(&self, ast: &Expr, scope: &Scope) -> Result<BoundExpr> {
        match ast {
            Expr::Column { qualifier, name } => {
                let (index, data_type) = scope.resolve(qualifier.as_deref(), name)?;
                Ok(BoundExpr::column(index, data_type, name.clone()))
            }
            Expr::Literal(v) => Ok(BoundExpr::literal(v.clone())),
            Expr::Wildcard => Err(Error::Plan("'*' is only valid inside COUNT(*)".into())),
            Expr::BinaryOp { left, op, right } => {
                let l = self.bind_scalar(left, scope)?;
                let r = self.bind_scalar(right, scope)?;
                make_binary(l, *op, r)
            }
            Expr::UnaryOp { op, expr } => {
                let e = self.bind_scalar(expr, scope)?;
                make_unary(*op, e)
            }
            Expr::Function {
                name,
                args,
                distinct: _,
            } => {
                if AggFunc::by_name(name).is_some() {
                    return Err(Error::Plan(format!(
                        "aggregate function {name} is not allowed here"
                    )));
                }
                let func = ScalarFunc::by_name(name)
                    .ok_or_else(|| Error::Plan(format!("unknown function: {name}")))?;
                let bound: Vec<BoundExpr> = args
                    .iter()
                    .map(|a| self.bind_scalar(a, scope))
                    .collect::<Result<_>>()?;
                make_scalar_fn(func, bound)
            }
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.bind_scalar(expr, scope)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let e = self.bind_scalar(expr, scope)?;
                let bound: Vec<BoundExpr> = list
                    .iter()
                    .map(|i| self.bind_scalar(i, scope))
                    .collect::<Result<_>>()?;
                for b in &bound {
                    if !e.data_type().comparable_with(b.data_type())
                        && !matches!(b, BoundExpr::Literal(Value::Null))
                    {
                        return Err(Error::Plan(format!(
                            "IN list element type {} is not comparable with {}",
                            b.data_type(),
                            e.data_type()
                        )));
                    }
                }
                Ok(BoundExpr::InList {
                    expr: Box::new(e),
                    list: bound,
                    negated: *negated,
                })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.bind_scalar(expr, scope)?;
                let lo = self.bind_scalar(low, scope)?;
                let hi = self.bind_scalar(high, scope)?;
                desugar_between(e, lo, hi, *negated)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let e = self.bind_scalar(expr, scope)?;
                let p = self.bind_scalar(pattern, scope)?;
                if e.data_type() != DataType::Utf8 || p.data_type() != DataType::Utf8 {
                    return Err(Error::Plan("LIKE requires string operands".into()));
                }
                Ok(BoundExpr::Like {
                    expr: Box::new(e),
                    pattern: Box::new(p),
                    negated: *negated,
                })
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let operand = operand
                    .as_ref()
                    .map(|o| self.bind_scalar(o, scope))
                    .transpose()?;
                let mut bound_branches = Vec::with_capacity(branches.len());
                for (w, t) in branches {
                    let bw = self.bind_scalar(w, scope)?;
                    if operand.is_none() {
                        expect_boolean(&bw, "CASE WHEN")?;
                    }
                    let bt = self.bind_scalar(t, scope)?;
                    bound_branches.push((bw, bt));
                }
                let else_expr = else_expr
                    .as_ref()
                    .map(|e| self.bind_scalar(e, scope))
                    .transpose()?;
                // Result type: common type across THEN branches and ELSE.
                let mut result_ty: Option<DataType> = None;
                for (_, t) in &bound_branches {
                    result_ty = Some(common_type(result_ty, t.data_type())?);
                }
                if let Some(e) = &else_expr {
                    result_ty = Some(common_type(result_ty, e.data_type())?);
                }
                Ok(BoundExpr::Case {
                    operand: operand.map(Box::new),
                    branches: bound_branches,
                    else_expr: else_expr.map(Box::new),
                    data_type: result_ty.unwrap_or(DataType::Boolean),
                })
            }
            Expr::Cast { expr, to } => Ok(BoundExpr::Cast {
                expr: Box::new(self.bind_scalar(expr, scope)?),
                to: *to,
            }),
            Expr::Extract { field, expr } => {
                let e = self.bind_scalar(expr, scope)?;
                if !matches!(e.data_type(), DataType::Date | DataType::Timestamp) {
                    return Err(Error::Plan(format!(
                        "EXTRACT requires a date/timestamp argument, got {}",
                        e.data_type()
                    )));
                }
                let func = match field {
                    DateField::Year => ScalarFunc::ExtractYear,
                    DateField::Month => ScalarFunc::ExtractMonth,
                    DateField::Day => ScalarFunc::ExtractDay,
                };
                Ok(BoundExpr::ScalarFn {
                    func,
                    args: vec![e],
                    data_type: DataType::Int64,
                })
            }
        }
    }
}

// -- helpers -----------------------------------------------------------------

fn expect_boolean(e: &BoundExpr, context: &str) -> Result<()> {
    // NULL literals are accepted anywhere.
    if matches!(e, BoundExpr::Literal(Value::Null)) {
        return Ok(());
    }
    if e.data_type() != DataType::Boolean {
        return Err(Error::Plan(format!(
            "{context} requires a boolean expression, got {}",
            e.data_type()
        )));
    }
    Ok(())
}

fn display_name(ast: &Expr) -> String {
    match ast {
        Expr::Column { name, .. } => name.clone(),
        other => other.to_string().to_ascii_lowercase(),
    }
}

/// Structural AST equality ignoring qualifier when one side lacks it.
fn ast_equal(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (
            Expr::Column {
                qualifier: qa,
                name: na,
            },
            Expr::Column {
                qualifier: qb,
                name: nb,
            },
        ) => {
            na.eq_ignore_ascii_case(nb)
                && match (qa, qb) {
                    (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                    _ => true,
                }
        }
        _ => a == b,
    }
}

fn ast_has_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Function { name, args, .. } => {
            AggFunc::by_name(name).is_some() || args.iter().any(ast_has_aggregate)
        }
        Expr::BinaryOp { left, right, .. } => ast_has_aggregate(left) || ast_has_aggregate(right),
        Expr::UnaryOp { expr, .. } => ast_has_aggregate(expr),
        Expr::IsNull { expr, .. } => ast_has_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            ast_has_aggregate(expr) || list.iter().any(ast_has_aggregate)
        }
        Expr::Between {
            expr, low, high, ..
        } => ast_has_aggregate(expr) || ast_has_aggregate(low) || ast_has_aggregate(high),
        Expr::Like { expr, pattern, .. } => ast_has_aggregate(expr) || ast_has_aggregate(pattern),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            operand.as_deref().is_some_and(ast_has_aggregate)
                || branches
                    .iter()
                    .any(|(w, t)| ast_has_aggregate(w) || ast_has_aggregate(t))
                || else_expr.as_deref().is_some_and(ast_has_aggregate)
        }
        Expr::Cast { expr, .. } => ast_has_aggregate(expr),
        Expr::Extract { expr, .. } => ast_has_aggregate(expr),
        Expr::Column { .. } | Expr::Literal(_) | Expr::Wildcard => false,
    }
}

/// Type a binary expression, producing the widened result type.
pub(crate) fn make_binary(l: BoundExpr, op: BinaryOp, r: BoundExpr) -> Result<BoundExpr> {
    let (lt, rt) = (l.data_type(), r.data_type());
    let null_operand = matches!(l, BoundExpr::Literal(Value::Null))
        || matches!(r, BoundExpr::Literal(Value::Null));
    let data_type = match op {
        BinaryOp::And | BinaryOp::Or => {
            if !null_operand && (lt != DataType::Boolean || rt != DataType::Boolean) {
                return Err(Error::Plan(format!(
                    "{} requires boolean operands, got {lt} and {rt}",
                    op.sql()
                )));
            }
            DataType::Boolean
        }
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            if !null_operand && !lt.comparable_with(rt) {
                return Err(Error::Plan(format!("cannot compare {lt} with {rt}")));
            }
            DataType::Boolean
        }
        BinaryOp::Concat => DataType::Utf8,
        BinaryOp::Plus | BinaryOp::Minus => {
            // Date ± integer = date arithmetic in days.
            match (lt, rt) {
                (DataType::Date, DataType::Int32 | DataType::Int64) => DataType::Date,
                (DataType::Int32 | DataType::Int64, DataType::Date) if op == BinaryOp::Plus => {
                    DataType::Date
                }
                (DataType::Date, DataType::Date) if op == BinaryOp::Minus => DataType::Int64,
                _ => numeric_result(op, lt, rt, null_operand)?,
            }
        }
        BinaryOp::Multiply | BinaryOp::Modulo => numeric_result(op, lt, rt, null_operand)?,
        // SQL integer division stays integral; we follow that.
        BinaryOp::Divide => numeric_result(op, lt, rt, null_operand)?,
    };
    Ok(BoundExpr::BinaryOp {
        left: Box::new(l),
        op,
        right: Box::new(r),
        data_type,
    })
}

fn numeric_result(
    op: BinaryOp,
    lt: DataType,
    rt: DataType,
    null_operand: bool,
) -> Result<DataType> {
    if null_operand {
        return Ok(if lt.is_numeric() { lt } else { rt });
    }
    DataType::common_numeric(lt, rt).ok_or_else(|| {
        Error::Plan(format!(
            "{} requires numeric operands, got {lt} and {rt}",
            op.sql()
        ))
    })
}

fn make_unary(op: UnaryOp, e: BoundExpr) -> Result<BoundExpr> {
    match op {
        UnaryOp::Neg => {
            if !e.data_type().is_numeric() {
                return Err(Error::Plan(format!(
                    "unary minus requires a numeric operand, got {}",
                    e.data_type()
                )));
            }
            Ok(BoundExpr::Negate(Box::new(e)))
        }
        UnaryOp::Not => {
            expect_boolean(&e, "NOT")?;
            Ok(BoundExpr::Not(Box::new(e)))
        }
    }
}

fn desugar_between(e: BoundExpr, lo: BoundExpr, hi: BoundExpr, negated: bool) -> Result<BoundExpr> {
    let ge = make_binary(e.clone(), BinaryOp::GtEq, lo)?;
    let le = make_binary(e, BinaryOp::LtEq, hi)?;
    let both = make_binary(ge, BinaryOp::And, le)?;
    Ok(if negated {
        BoundExpr::Not(Box::new(both))
    } else {
        both
    })
}

fn make_scalar_fn(func: ScalarFunc, args: Vec<BoundExpr>) -> Result<BoundExpr> {
    let argc_ok = match func {
        ScalarFunc::Abs
        | ScalarFunc::Upper
        | ScalarFunc::Lower
        | ScalarFunc::Length
        | ScalarFunc::Floor
        | ScalarFunc::Ceil
        | ScalarFunc::Sqrt
        | ScalarFunc::ExtractYear
        | ScalarFunc::ExtractMonth
        | ScalarFunc::ExtractDay => args.len() == 1,
        ScalarFunc::Substr => args.len() == 2 || args.len() == 3,
        ScalarFunc::Round => args.len() == 1 || args.len() == 2,
        ScalarFunc::Coalesce | ScalarFunc::Concat => !args.is_empty(),
    };
    if !argc_ok {
        return Err(Error::Plan(format!(
            "wrong number of arguments to {}",
            func.name()
        )));
    }
    let data_type = match func {
        ScalarFunc::Abs => {
            let t = args[0].data_type();
            if !t.is_numeric() {
                return Err(Error::Plan("ABS requires a numeric argument".into()));
            }
            t
        }
        ScalarFunc::Upper | ScalarFunc::Lower | ScalarFunc::Substr | ScalarFunc::Concat => {
            DataType::Utf8
        }
        ScalarFunc::Length
        | ScalarFunc::ExtractYear
        | ScalarFunc::ExtractMonth
        | ScalarFunc::ExtractDay => DataType::Int64,
        ScalarFunc::Round | ScalarFunc::Floor | ScalarFunc::Ceil | ScalarFunc::Sqrt => {
            DataType::Float64
        }
        ScalarFunc::Coalesce => {
            let mut ty: Option<DataType> = None;
            for a in &args {
                if matches!(a, BoundExpr::Literal(Value::Null)) {
                    continue;
                }
                ty = Some(common_type(ty, a.data_type())?);
            }
            ty.unwrap_or(DataType::Boolean)
        }
    };
    Ok(BoundExpr::ScalarFn {
        func,
        args,
        data_type,
    })
}

fn common_type(acc: Option<DataType>, next: DataType) -> Result<DataType> {
    match acc {
        None => Ok(next),
        Some(t) if t == next => Ok(t),
        Some(t) => DataType::common_numeric(t, next)
            .ok_or_else(|| Error::Plan(format!("incompatible branch types: {t} vs {next}"))),
    }
}

/// Split a bound JOIN ON condition into equi-key pairs and a residual.
///
/// `left_width` is the number of columns contributed by the left side in the
/// combined schema. Key expressions are re-rooted to their side's schema.
#[allow(clippy::type_complexity)]
fn split_join_condition(
    cond: BoundExpr,
    left_width: usize,
) -> Result<(Vec<BoundExpr>, Vec<BoundExpr>, Option<BoundExpr>)> {
    let mut conjuncts = Vec::new();
    collect_conjuncts(cond, &mut conjuncts);
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual: Vec<BoundExpr> = Vec::new();
    for c in conjuncts {
        if let BoundExpr::BinaryOp {
            left,
            op: BinaryOp::Eq,
            right,
            ..
        } = &c
        {
            let lcols = left.referenced_columns();
            let rcols = right.referenced_columns();
            let all_left = |cols: &[usize]| cols.iter().all(|&i| i < left_width);
            let all_right = |cols: &[usize]| cols.iter().all(|&i| i >= left_width);
            let reroot = |e: &BoundExpr| e.map_columns(&|i| i - left_width);
            if !lcols.is_empty() && !rcols.is_empty() {
                if all_left(&lcols) && all_right(&rcols) {
                    left_keys.push((**left).clone());
                    right_keys.push(reroot(right));
                    continue;
                }
                if all_right(&lcols) && all_left(&rcols) {
                    left_keys.push((**right).clone());
                    right_keys.push(reroot(left));
                    continue;
                }
            }
        }
        residual.push(c);
    }
    let residual = residual
        .into_iter()
        .reduce(|a, b| make_binary(a, BinaryOp::And, b).expect("boolean AND"));
    Ok((left_keys, right_keys, residual))
}

/// Flatten nested ANDs into a conjunct list.
pub(crate) fn collect_conjuncts(e: BoundExpr, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::BinaryOp {
            left,
            op: BinaryOp::And,
            right,
            ..
        } => {
            collect_conjuncts(*left, out);
            collect_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}
