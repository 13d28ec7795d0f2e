//! Plan-level tests of the optimizer rules: where predicates land, which
//! columns scans read, how joins are normalized, and what plan splitting
//! produces.

use pixels_catalog::{Catalog, CreateTable};
use pixels_common::{DataType, Field, Schema};
use pixels_planner::{plan_query, split_for_acceleration, zone_predicates, Plan};
use std::sync::Arc;

fn catalog() -> Catalog {
    let catalog = Catalog::new();
    catalog
        .create_table(CreateTable {
            database: "db".into(),
            name: "t".into(),
            schema: Arc::new(Schema::new(vec![
                Field::required("a", DataType::Int64),
                Field::required("b", DataType::Int64),
                Field::required("c", DataType::Utf8),
                Field::required("d", DataType::Float64),
            ])),
            primary_key: Some("a".into()),
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    catalog
        .create_table(CreateTable {
            database: "db".into(),
            name: "u".into(),
            schema: Arc::new(Schema::new(vec![
                Field::required("x", DataType::Int64),
                Field::required("y", DataType::Utf8),
            ])),
            primary_key: Some("x".into()),
            foreign_keys: vec![],
            comment: None,
        })
        .unwrap();
    catalog
}

fn find_scans(plan: &Plan) -> Vec<&Plan> {
    let mut out = Vec::new();
    fn walk<'a>(p: &'a Plan, out: &mut Vec<&'a Plan>) {
        if matches!(p, Plan::Scan { .. }) {
            out.push(p);
        }
        for c in p.children() {
            walk(c, out);
        }
    }
    walk(plan, &mut out);
    out
}

#[test]
fn predicates_push_into_the_scan() {
    let cat = catalog();
    let plan = plan_query(&cat, "db", "SELECT a FROM t WHERE b > 5 AND c = 'x'").unwrap();
    let scans = find_scans(&plan);
    assert_eq!(scans.len(), 1);
    let Plan::Scan {
        filters,
        projection,
        ..
    } = scans[0]
    else {
        unreachable!()
    };
    assert_eq!(filters.len(), 2, "both conjuncts in the scan");
    let zone = zone_predicates(filters, projection);
    assert_eq!(zone.len(), 2, "both usable for zone maps");
    // No residual Filter node should remain anywhere.
    fn has_filter(p: &Plan) -> bool {
        matches!(p, Plan::Filter { .. }) || p.children().iter().any(|c| has_filter(c))
    }
    assert!(!has_filter(&plan), "{}", plan.explain());
}

#[test]
fn projection_pruning_narrows_the_scan() {
    let cat = catalog();
    let plan = plan_query(&cat, "db", "SELECT a FROM t WHERE d > 0.5").unwrap();
    let scans = find_scans(&plan);
    let Plan::Scan { projection, .. } = scans[0] else {
        unreachable!()
    };
    // Only `a` (output) and `d` (filter) are needed out of 4 columns.
    assert_eq!(projection.as_slice(), &[0, 3], "{}", plan.explain());
}

#[test]
fn select_star_reads_everything() {
    let cat = catalog();
    let plan = plan_query(&cat, "db", "SELECT * FROM t").unwrap();
    let Plan::Scan { projection, .. } = find_scans(&plan)[0] else {
        unreachable!()
    };
    assert_eq!(projection.len(), 4);
}

#[test]
fn count_star_keeps_narrowest_column() {
    let cat = catalog();
    let plan = plan_query(&cat, "db", "SELECT COUNT(*) FROM t").unwrap();
    let Plan::Scan { projection, .. } = find_scans(&plan)[0] else {
        unreachable!()
    };
    assert_eq!(projection.len(), 1, "one column suffices for COUNT(*)");
}

#[test]
fn comma_join_with_where_becomes_hash_join() {
    let cat = catalog();
    let plan = plan_query(&cat, "db", "SELECT c, y FROM t, u WHERE a = x AND b > 1").unwrap();
    fn find_join(p: &Plan) -> Option<&Plan> {
        if matches!(p, Plan::Join { .. }) {
            return Some(p);
        }
        p.children().into_iter().find_map(find_join)
    }
    let join = find_join(&plan).expect("hash join present");
    let Plan::Join {
        join_type,
        left_keys,
        ..
    } = join
    else {
        unreachable!()
    };
    assert_eq!(*join_type, pixels_sql::ast::JoinType::Inner);
    assert_eq!(left_keys.len(), 1);
    // The b > 1 predicate must still reach t's scan.
    let scans = find_scans(&plan);
    let t_scan = scans
        .iter()
        .find_map(|s| match s {
            Plan::Scan { table, filters, .. } if table == "t" => Some(filters),
            _ => None,
        })
        .unwrap();
    assert_eq!(t_scan.len(), 1, "{}", plan.explain());
}

#[test]
fn constant_folding_removes_trivial_arithmetic() {
    let cat = catalog();
    let plan = plan_query(&cat, "db", "SELECT a + (1 + 2) FROM t").unwrap();
    let text = plan.explain();
    assert!(text.contains("+ 3"), "folded literal: {text}");
    assert!(!text.contains("(1 + 2)"), "{text}");
}

#[test]
fn filters_do_not_cross_limit() {
    // A filter above LIMIT must not push below it (that would change which
    // rows survive).
    let cat = catalog();
    let plan = plan_query(
        &cat,
        "db",
        "SELECT * FROM (SELECT a, b FROM t LIMIT 10) AS sub WHERE a > 5",
    )
    .unwrap();
    // The scan must NOT contain the a > 5 predicate.
    let Plan::Scan { filters, .. } = find_scans(&plan)[0] else {
        unreachable!()
    };
    assert!(filters.is_empty(), "{}", plan.explain());
    assert!(plan.explain().contains("Filter"), "{}", plan.explain());
}

#[test]
fn sort_limit_fuses_into_topk() {
    let cat = catalog();
    let plan = plan_query(&cat, "db", "SELECT a FROM t ORDER BY d DESC LIMIT 7").unwrap();
    let text = plan.explain();
    assert!(text.contains("TopK(fetch=7)"), "{text}");
    assert!(!text.contains("\nSort"), "full sort should be gone: {text}");
}

#[test]
fn split_cuts_at_expensive_operators() {
    let cat = catalog();
    let plan = plan_query(
        &cat,
        "db",
        "SELECT c, COUNT(*) AS n FROM t WHERE b > 0 GROUP BY c ORDER BY n DESC LIMIT 3",
    )
    .unwrap();
    let split = split_for_acceleration(&plan, "mv/x.pxl").expect("splittable");
    // Sub-plan holds the aggregate + scan; top plan only cheap operators.
    let sub = split.sub_plan.explain();
    assert!(sub.contains("HashAggregate"), "{sub}");
    assert!(sub.contains("PixelsScan"), "{sub}");
    let top = split.top_plan.explain();
    assert!(top.contains("MaterializedScan: mv/x.pxl"), "{top}");
    assert!(!top.contains("PixelsScan"), "{top}");
    assert!(!top.contains("HashAggregate"), "{top}");
    // Schemas line up at the cut.
    assert_eq!(split.sub_plan.schema().len(), 2);
}

#[test]
fn trivial_plans_do_not_split() {
    let cat = catalog();
    let plan = plan_query(&cat, "db", "SELECT 1 + 1").unwrap();
    assert!(split_for_acceleration(&plan, "mv/x.pxl").is_none());
}

#[test]
fn estimates_decrease_with_projection() {
    let cat = catalog();
    let narrow = plan_query(&cat, "db", "SELECT a FROM t").unwrap();
    let wide = plan_query(&cat, "db", "SELECT * FROM t").unwrap();
    // With zero registered data both estimates are 0; register stats first.
    // Instead compare structural width via schema.
    assert!(narrow.schema().len() < wide.schema().len());
    assert!(narrow.estimate().scan_bytes <= wide.estimate().scan_bytes);
}

/// With no registered data files, every estimate is unreliable, and the
/// build-side chooser must fall back to the schema byte-width heuristic:
/// whichever syntactic order the query uses, the narrow table `u` (24
/// bytes/row) ends up as the build (right) side of the hash join and the
/// wide table `t` (40 bytes/row) as the probe side.
#[test]
fn build_side_without_stats_builds_on_narrow_schema() {
    fn join_sides(p: &Plan) -> Option<(&Plan, &Plan)> {
        if let Plan::Join { left, right, .. } = p {
            return Some((left, right));
        }
        p.children().into_iter().find_map(join_sides)
    }
    fn scans_table(p: &Plan, name: &str) -> bool {
        if let Plan::Scan { table, .. } = p {
            return table == name;
        }
        p.children().into_iter().any(|c| scans_table(c, name))
    }

    let cat = catalog();
    for sql in [
        "SELECT b, c, d, y FROM t JOIN u ON a = x",
        "SELECT b, c, d, y FROM u JOIN t ON x = a",
    ] {
        let plan = plan_query(&cat, "db", sql).unwrap();
        let (probe, build) = join_sides(&plan).expect("hash join survives optimization");
        assert!(
            scans_table(build, "u"),
            "{sql}: build side must be the narrow table, got plan:\n{}",
            plan.explain()
        );
        assert!(scans_table(probe, "t"), "{sql}: probe side must be t");
    }
}
