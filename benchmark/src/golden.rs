//! The correctness gate: expected rows for every distinct query a workload
//! can send, blessed once through `pixels_exec::run_query` (no caches, no
//! engine, no server) and compared against every response of a run.

use crate::deploy::{load_data, Dataset};
use crate::spec::WorkloadSpec;
use crate::stream::{distinct_queries, QUESTIONS, QUESTION_DATABASE};
use pixels_common::{DataType, Json, RecordBatch, Value};
use pixels_nl2sql::{CodesService, TextToSqlService};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

/// Relative tolerance for floating-point cells; everything else is exact.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// Expected result of one query, in the wire format of `GET /queries/<id>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Indices of the columns compared with [`FLOAT_TOLERANCE`].
    pub float_columns: Vec<usize>,
    pub rows: Vec<Json>,
}

pub struct Golden {
    pub dataset: Dataset,
    /// Pooled question → the SQL the translator must return for it.
    pub translations: BTreeMap<String, String>,
    /// (database, sql) → expected rows.
    pub queries: HashMap<(String, String), Expected>,
}

pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.json"))
}

/// A cell as `pixels_server::http` puts it on the wire.
fn cell_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Boolean(b) => Json::Bool(*b),
        Value::Int32(x) => Json::Number(f64::from(*x)),
        Value::Int64(x) => Json::Number(*x as f64),
        Value::Float64(x) => Json::Number(*x),
        other => Json::string(other.to_string()),
    }
}

fn expected_of(batch: &RecordBatch) -> Expected {
    Expected {
        float_columns: batch
            .schema()
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.data_type == DataType::Float64)
            .map(|(i, _)| i)
            .collect(),
        rows: batch
            .to_rows()
            .iter()
            .map(|row| Json::Array(row.iter().map(cell_to_json).collect()))
            .collect(),
    }
}

fn cells_match(expected: &Json, got: &Json, float: bool) -> bool {
    match (expected, got) {
        (Json::Number(e), Json::Number(g)) if float => {
            (e - g).abs() <= FLOAT_TOLERANCE * e.abs().max(g.abs())
        }
        _ => expected == got,
    }
}

/// Whether `rows` (the `"rows"` array of a terminal response) are the
/// expected rows, in order.
pub fn rows_match(expected: &Expected, rows: &[Json]) -> bool {
    expected.rows.len() == rows.len()
        && expected.rows.iter().zip(rows).all(|(e, g)| {
            let (Some(e), Some(g)) = (e.as_array(), g.as_array()) else {
                return false;
            };
            e.len() == g.len()
                && e.iter()
                    .zip(g)
                    .enumerate()
                    .all(|(i, (e, g))| cells_match(e, g, expected.float_columns.contains(&i)))
        })
}

impl Golden {
    pub fn load(workload: &str) -> Result<Golden, String> {
        let file = path(workload);
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("{}: {e} (run `bless` first)", file.display()))?;
        Golden::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
    }

    fn parse(text: &str) -> Result<Golden, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let field = |j: &Json, k: &str| j.get(k).cloned().ok_or(format!("missing `{k}`"));
        let string = |j: &Json, k: &str| {
            field(j, k)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("`{k}` is not a string"))
        };
        let dataset = Dataset::from_json(&field(&json, "dataset")?)?;
        let mut translations = BTreeMap::new();
        if let Json::Object(map) = field(&json, "translations")? {
            for (question, sql) in map {
                let sql = sql.as_str().ok_or("translation is not a string")?;
                translations.insert(question, sql.to_string());
            }
        }
        let mut queries = HashMap::new();
        for q in field(&json, "queries")?
            .as_array()
            .ok_or("`queries` is not an array")?
        {
            let float_columns = field(q, "float_columns")?
                .as_array()
                .ok_or("`float_columns` is not an array")?
                .iter()
                .filter_map(|c| c.as_i64())
                .map(|c| c as usize)
                .collect();
            let rows = field(q, "rows")?
                .as_array()
                .ok_or("`rows` is not an array")?
                .to_vec();
            queries.insert(
                (string(q, "database")?, string(q, "sql")?),
                Expected {
                    float_columns,
                    rows,
                },
            );
        }
        Ok(Golden {
            dataset,
            translations,
            queries,
        })
    }
}

/// Run every distinct query of `spec` once and write the golden file.
/// Returns the number of queries blessed.
pub fn bless(spec: &WorkloadSpec) -> Result<usize, String> {
    let data = load_data(spec);
    let mut texts: Vec<(String, String)> = distinct_queries(spec.mix)
        .into_iter()
        .map(|q| (q.database.to_string(), q.sql))
        .collect();
    let mut translations = BTreeMap::new();
    if spec.translate {
        let nl = CodesService::new(data.catalog.clone(), data.mem.clone());
        for question in QUESTIONS {
            let t = nl
                .translate(QUESTION_DATABASE, question)
                .map_err(|e| format!("translate {question:?}: {e}"))?;
            translations.insert(question.to_string(), t.sql.clone());
            texts.push((QUESTION_DATABASE.to_string(), t.sql));
        }
    }
    // One entry per line, so a re-bless diffs query by query.
    let mut out = format!(
        "{{\"workload\":{},\n\"dataset\":{},\n\"translations\":{},\n\"queries\":[\n",
        Json::string(spec.name),
        data.dataset.to_json(),
        Json::object(
            translations
                .iter()
                .map(|(q, sql)| (q.clone(), Json::string(sql.clone())))
        ),
    );
    for (i, (database, sql)) in texts.iter().enumerate() {
        let batch = pixels_exec::run_query(&data.catalog, data.mem.clone(), database, sql)
            .map_err(|e| format!("{sql}: {e}"))?;
        let expected = expected_of(&batch);
        let entry = Json::object([
            ("database", Json::string(database.clone())),
            ("sql", Json::string(sql.clone())),
            (
                "float_columns",
                Json::array(
                    expected
                        .float_columns
                        .iter()
                        .map(|&c| Json::number(c as f64)),
                ),
            ),
            ("rows", Json::Array(expected.rows)),
        ]);
        let comma = if i + 1 < texts.len() { "," } else { "" };
        out.push_str(&format!("{entry}{comma}\n"));
    }
    out.push_str("]}\n");
    let file = path(spec.name);
    std::fs::create_dir_all(file.parent().expect("golden dir")).map_err(|e| e.to_string())?;
    std::fs::write(&file, out).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(texts.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected(float_columns: Vec<usize>, rows: &str) -> Expected {
        Expected {
            float_columns,
            rows: Json::parse(rows).unwrap().as_array().unwrap().to_vec(),
        }
    }

    fn rows(text: &str) -> Vec<Json> {
        Json::parse(text).unwrap().as_array().unwrap().to_vec()
    }

    #[test]
    fn floats_compare_at_one_part_in_a_billion() {
        let e = expected(vec![1], r#"[["a", 1000000.0]]"#);
        assert!(rows_match(&e, &rows(r#"[["a", 1000000.0005]]"#)));
        assert!(!rows_match(&e, &rows(r#"[["a", 1000000.002]]"#)));
        let zero = expected(vec![0], "[[0]]");
        assert!(rows_match(&zero, &rows("[[0]]")));
        assert!(!rows_match(&zero, &rows("[[1e-300]]")));
    }

    #[test]
    fn everything_else_compares_exactly() {
        // Column 0 is an integer column: the float tolerance does not apply.
        let e = expected(vec![], r#"[[1000000000000, "x", null, true]]"#);
        assert!(rows_match(
            &e,
            &rows(r#"[[1000000000000, "x", null, true]]"#)
        ));
        assert!(!rows_match(
            &e,
            &rows(r#"[[1000000000001, "x", null, true]]"#)
        ));
        assert!(!rows_match(
            &e,
            &rows(r#"[[1000000000000, "X", null, true]]"#)
        ));
        assert!(!rows_match(&e, &rows(r#"[[1000000000000, "x", 0, true]]"#)));
    }

    #[test]
    fn order_and_shape_matter() {
        let e = expected(vec![], "[[1],[2]]");
        assert!(rows_match(&e, &rows("[[1],[2]]")));
        assert!(!rows_match(&e, &rows("[[2],[1]]")));
        assert!(!rows_match(&e, &rows("[[1]]")));
        assert!(!rows_match(&e, &rows("[[1],[2],[3]]")));
        assert!(!rows_match(&e, &rows("[[1,1],[2,2]]")));
        assert!(!rows_match(&e, &rows("[1,2]")));
    }

    #[test]
    fn golden_file_round_trips() {
        let text = r#"{"workload":"w",
"dataset":{"stored_bytes":10,"tables":{"tpch.region":5}},
"translations":{"how many?":"SELECT COUNT(*) FROM t"},
"queries":[
{"database":"tpch","float_columns":[1],"rows":[["a",1.5]],"sql":"SELECT 1"}
]}"#;
        let g = Golden::parse(text).unwrap();
        assert_eq!(g.dataset.stored_bytes, 10);
        assert_eq!(g.translations["how many?"], "SELECT COUNT(*) FROM t");
        let e = &g.queries[&("tpch".to_string(), "SELECT 1".to_string())];
        assert_eq!(e.float_columns, vec![1]);
        assert!(rows_match(e, &rows(r#"[["a",1.5]]"#)));
        assert!(Golden::parse("{}").is_err());
    }
}
