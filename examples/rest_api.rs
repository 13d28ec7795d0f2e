//! The REST surface of PixelsDB (paper §2): the query server and the
//! text-to-SQL service both speak JSON over HTTP. This example boots the
//! whole deployment behind the HTTP facade and drives it with raw HTTP
//! requests, exactly as an external client (or curl) would.
//!
//! ```text
//! cargo run --example rest_api
//! ```

use pixelsdb::catalog::Catalog;
use pixelsdb::common::Json;
use pixelsdb::nl2sql::CodesService;
use pixelsdb::server::{HttpServer, PriceSchedule, QueryServer, TranslateBackend};
use pixelsdb::storage::InMemoryObjectStore;
use pixelsdb::turbo::{EngineConfig, TurboEngine};
use pixelsdb::workload::{load_tpch, TpchConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Adapter plugging the CodeS-style service into the HTTP facade (the
/// text-to-SQL service is pluggable, per the paper).
struct Nl(Arc<CodesService>);

impl TranslateBackend for Nl {
    fn translate_json(&self, request: &str) -> String {
        self.0.handle_json(request)
    }
}

fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> Json {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, payload) = response.split_once("\r\n\r\n").unwrap();
    println!(">> {method} {path} {body}");
    println!("<< {} {payload}\n", head.lines().next().unwrap());
    Json::parse(payload).unwrap()
}

fn main() {
    let catalog = Catalog::shared();
    let store = InMemoryObjectStore::shared();
    load_tpch(
        &catalog,
        store.as_ref(),
        "tpch",
        &TpchConfig {
            scale: 0.001,
            seed: 42,
            row_group_rows: 2048,
            files_per_table: 1,
        },
    )
    .expect("load data");
    let engine = Arc::new(TurboEngine::new(
        catalog.clone(),
        store.clone(),
        EngineConfig::default(),
    ));
    let server = Arc::new(QueryServer::new(engine, PriceSchedule::default()));
    let nl = Arc::new(CodesService::new(catalog, store));
    let srv = HttpServer::start(server, Some(Arc::new(Nl(nl))), 0).expect("bind");
    let addr = srv.addr();
    println!("PixelsDB REST API listening on http://{addr}\n");

    // 1. Health check.
    http(addr, "GET", "/health", "");

    // 2. Translate a question (the Rover -> CodeS round trip).
    let t = http(
        addr,
        "POST",
        "/translate",
        r#"{"question": "how many orders per order status", "database": "tpch"}"#,
    );
    let sql = t.get("sql").unwrap().as_str().unwrap().to_string();

    // 3. Submit the translated SQL at the relaxed level.
    let submitted = http(
        addr,
        "POST",
        "/queries",
        &Json::object([
            ("database", Json::string("tpch")),
            ("sql", Json::string(sql)),
            ("level", Json::string("relaxed")),
            ("result_limit", Json::number(10.0)),
        ])
        .to_compact_string(),
    );
    let id = submitted.get("id").unwrap().as_str().unwrap().to_string();

    // 4. Ask for the status: the server holds the GET until the query is
    //    terminal (or a second has passed — then ask again), so there is
    //    nothing to sleep on here. Then show rows + bill.
    let final_state = loop {
        let state = http(addr, "GET", &format!("/queries/{id}"), "");
        match state.get("status").and_then(|s| s.as_str()) {
            Some("pending") | Some("running") => {}
            _ => break state,
        }
    };
    assert_eq!(
        final_state.get("status").unwrap().as_str(),
        Some("finished")
    );
    assert!(final_state.get("rows").is_some());
    srv.shutdown();
    println!("rest_api: done");
}
