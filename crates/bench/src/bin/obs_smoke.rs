//! Observability smoke test — the CI gate for the tracing/metrics surface.
//!
//! Starts the real HTTP server, runs one traced query end-to-end over the
//! wire, then:
//!
//! 1. scrapes `GET /metrics` — once before the query, once after — and
//!    validates the Prometheus text exposition (syntax + every family the
//!    catalogs register, [`pixels_bench::catalog_families`]),
//! 2. fetches the query's span-tree profile from `GET /queries/<id>/profile`
//!    and checks that its byte attribution sums exactly to the billed
//!    `scan_bytes`,
//! 3. writes the profile to `results/query_profile.json` (uploaded as a CI
//!    artifact).
//!
//! Exits non-zero on any failure, so CI fails on malformed exposition,
//! missing families, or a broken trace.

use pixels_bench::{demo_data, Gate};
use pixels_common::Json;
use pixels_server::{HttpServer, PriceSchedule, QueryServer};
use pixels_turbo::{EngineConfig, TurboEngine};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, payload) = response.split_once("\r\n\r\n").expect("http response");
    (
        head.lines().next().unwrap_or("").to_string(),
        payload.to_string(),
    )
}

/// Scrape `/metrics` and judge it: 200, a valid exposition, every `required`
/// family present. Returns (check name, passed, detail) per check.
fn scrape(
    addr: std::net::SocketAddr,
    required: &BTreeSet<String>,
    when: &str,
) -> Vec<(String, bool, String)> {
    let (status, text) = request(addr, "GET", "/metrics", "");
    let mut checks = vec![(
        format!("metrics endpoint 200 ({when})"),
        status.contains("200"),
        status,
    )];
    match pixels_obs::validate_exposition(&text) {
        Ok(families) => {
            println!("     {} metric families exposed ({when})", families.len());
            for f in required {
                let present = families.contains(f);
                checks.push((format!("family {f} ({when})"), present, "missing".into()));
            }
        }
        Err(e) => checks.push((format!("exposition valid ({when})"), false, e)),
    }
    checks
}

/// Check `self_us` on every node of a profile forest: present, and never
/// larger than the node's own duration. Returns the first offending node.
fn bad_self_time(node: &Json) -> Option<String> {
    let duration = node
        .get("duration_us")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    match node.get("self_us").and_then(|v| v.as_f64()) {
        None => return Some(format!("{} has no self_us", node.to_compact_string())),
        Some(s) if s > duration => {
            return Some(format!("self_us {s} exceeds duration {duration}"));
        }
        Some(_) => {}
    }
    node.get("children")
        .and_then(|c| c.as_array())
        .into_iter()
        .flatten()
        .find_map(bad_self_time)
}

/// Sum one numeric attribute over a profile span forest.
fn sum_attr(node: &Json, key: &str) -> f64 {
    let mut total = node
        .get("attrs")
        .and_then(|a| a.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    if let Some(children) = node.get("children").and_then(|c| c.as_array()) {
        for c in children {
            total += sum_attr(c, key);
        }
    }
    total
}

fn main() {
    let mut gate = Gate::default();

    let (catalog, store) = demo_data(0.002);
    let engine = Arc::new(TurboEngine::new(catalog, store, EngineConfig::default()));
    let server = Arc::new(QueryServer::new(engine, PriceSchedule::default()));
    let http = HttpServer::start(server.clone(), None, 0).expect("start http server");
    let addr = http.addr();
    println!("server listening on {addr}");

    // 0. Before any query: the catalogs registered eagerly, so an idle
    //    server already serves every family, at zero.
    let required = pixels_bench::catalog_families();
    // Named here as well, so it stays required should it leave the catalog.
    gate.check(
        "chunk memo hits family catalogued",
        required.contains("pixels_cache_chunk_memo_hits_total"),
        "missing from the engine catalog",
    );
    for (name, ok, detail) in scrape(addr, &required, "idle") {
        gate.check(&name, ok, &detail);
    }

    // Submit one query over the wire and poll to completion.
    let (status, body) = request(
        addr,
        "POST",
        "/queries",
        r#"{"database":"tpch","sql":"SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus ORDER BY n DESC","level":"immediate"}"#,
    );
    gate.check("submit accepted", status.contains("202"), &status);
    let id = Json::parse(&body)
        .ok()
        .and_then(|j| j.get("id").and_then(|v| v.as_str().map(String::from)))
        .unwrap_or_default();
    let mut info = Json::Null;
    for _ in 0..1000 {
        let (_, payload) = request(addr, "GET", &format!("/queries/{id}"), "");
        let j = Json::parse(&payload).unwrap_or(Json::Null);
        match j.get("status").and_then(|s| s.as_str()) {
            Some("finished") | Some("failed") => {
                info = j;
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    gate.check(
        "query finished",
        info.get("status").and_then(|s| s.as_str()) == Some("finished"),
        &info.to_compact_string(),
    );
    let scan_bytes = info
        .get("scan_bytes")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    gate.check("query billed bytes", scan_bytes > 0.0, "scan_bytes == 0");

    // 1. /metrics: valid exposition with every required family.
    for (name, ok, detail) in scrape(addr, &required, "after a query") {
        gate.check(&name, ok, &detail);
    }

    // 2. Profile: span tree whose byte attribution matches billing.
    let (status, payload) = request(addr, "GET", &format!("/queries/{id}/profile"), "");
    gate.check("profile endpoint 200", status.contains("200"), &status);
    let profile = Json::parse(&payload)
        .ok()
        .and_then(|j| j.get("profile").cloned())
        .unwrap_or(Json::Null);
    let rendered = profile.to_compact_string();
    for span in ["query", "scheduler_wait", "scan", "storage_open", "morsel"] {
        gate.check(
            &format!("span {span}"),
            rendered.contains(&format!("\"name\":\"{span}\"")),
            "missing from profile",
        );
    }
    let attributed: f64 = profile
        .as_array()
        .map(|roots| roots.iter().map(|r| sum_attr(r, "bytes")).sum())
        .unwrap_or(0.0);
    gate.check(
        "bytes reconcile",
        attributed == scan_bytes,
        &format!("profile attributes {attributed} bytes, billed {scan_bytes}"),
    );

    let self_time_problem = profile
        .as_array()
        .and_then(|roots| roots.iter().find_map(bad_self_time));
    gate.check(
        "self-time attribution",
        self_time_problem.is_none(),
        self_time_problem.as_deref().unwrap_or(""),
    );

    // 3. SLO tracker: the finished query must land in a bucket, with a
    //    threshold derived from the scheduler and burn rates per window.
    let (status, payload) = request(addr, "GET", "/slo", "");
    gate.check("slo endpoint 200", status.contains("200"), &status);
    let slo = Json::parse(&payload).unwrap_or(Json::Null);
    let immediate = slo
        .get("levels")
        .and_then(|l| l.get("immediate"))
        .cloned()
        .unwrap_or(Json::Null);
    gate.check(
        "slo counts the query",
        immediate.get("good_total").and_then(|v| v.as_f64()) == Some(1.0),
        &payload,
    );
    gate.check(
        "slo burn-rate windows",
        immediate
            .get("burn_rate")
            .and_then(|b| b.get("5m"))
            .is_some(),
        &payload,
    );

    // 4. Economics ledger: one entry whose billed bytes equal the query's.
    let (status, payload) = request(addr, "GET", "/ledger", "");
    gate.check("ledger endpoint 200", status.contains("200"), &status);
    let ledger = Json::parse(&payload).unwrap_or(Json::Null);
    let summary = ledger.get("summary").cloned().unwrap_or(Json::Null);
    gate.check(
        "ledger entry recorded",
        summary.get("entries").and_then(|v| v.as_f64()) == Some(1.0),
        &payload,
    );
    gate.check(
        "ledger bytes reconcile",
        summary.get("bytes_billed").and_then(|v| v.as_f64()) == Some(scan_bytes),
        &payload,
    );

    // 5. Artifact for CI.
    gate.write("query_profile.json", &rendered);

    http.shutdown();
    gate.finish("all checks passed");
}
