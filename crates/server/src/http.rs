//! A minimal HTTP/1.1 REST facade over the query server — the actual wire
//! surface the paper describes ("The Query Server provides a REST API to
//! receive queries from clients (e.g., Pixels-Rover)"; CodeS "exposes a REST
//! API to Pixels-Rover").
//!
//! Endpoints (all JSON):
//!
//! | method & path        | body                                            | response |
//! |----------------------|--------------------------------------------------|---------|
//! | `POST /translate`    | `{"question": ..., "database": ...}`             | `{"sql": ..., "confidence": ...}` |
//! | `POST /queries`      | `{"database","sql","level","result_limit"?,"tenant"?}` | `{"id": "q-0"}`; held for the tenant's turn past 400 a second |
//! | `GET /queries/<id>`  | —                                                | status payload (+`rows` when finished); held until terminal or [`STATUS_HOLD`] |
//! | `GET /queries/<id>/profile` | —                                         | the query's span-tree profile |
//! | `GET /queries`       | —                                                | `{"queries": [...]}` |
//! | `GET /metrics`       | —                                                | Prometheus text exposition (not JSON) |
//! | `GET /slo`           | —                                                | per-level SLO status + burn rates |
//! | `GET /ledger`        | —                                                | economics ledger summaries |
//! | `GET /journal`       | —                                                | query journal (JSON lines, not JSON) |
//! | `GET /health`        | —                                                | `{"status": "ok"}` |
//!
//! The front end is driven by completion, not by polling. The accept loop
//! blocks in `accept()`. `GET /queries/<id>` is held on that query's own
//! signal until the query is terminal or [`STATUS_HOLD`] has passed and then
//! answers `200` with whatever the status is (Trino's `nextUri` behaviour): a
//! client that polls gets its rows from the first `GET`, and one that finds
//! `pending` or `running` simply asks again.
//!
//! `POST /queries` is paced per tenant: [`SUBMIT_BURST`] submissions back to
//! back, then one every [`SUBMIT_INTERVAL`] (400 a second). A submission
//! ahead of its turn is held until the turn comes (`202` as ever), one more
//! than [`STATUS_HOLD`] ahead is refused with `429`. A closed loop of light
//! queries therefore runs at the pace, not at whatever the host's cores give
//! that second, and one tenant cannot take the whole front end.
//!
//! The implementation is deliberately small (std `TcpListener`, one thread
//! per connection, `Content-Length` bodies only, one request per connection)
//! — enough to be driven by curl or any HTTP client, with no dependencies
//! outside the allowed list. What a client may send is bounded: a body over
//! [`MAX_BODY_BYTES`] is refused with `413`, a request or header line over
//! [`MAX_LINE_BYTES`] or more than [`MAX_HEADERS`] headers with `431`, an
//! unreadable request line or `Content-Length` with `400`, and a client that
//! neither sends nor reads for [`IO_TIMEOUT`] loses its connection.

use crate::api::QueryServer;
use crate::query::{QueryInfo, QuerySubmission};
use crate::service_level::ServiceLevel;
use parking_lot::{Condvar, Mutex};
use pixels_common::{Error, Json, QueryId, Result};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest `GET /queries/<id>` is held for a query that is not terminal
/// yet. A constant of the protocol, not a knob: long enough that nearly
/// every query answers its first `GET`, short enough that no proxy or client
/// timeout is in play.
pub const STATUS_HOLD: Duration = Duration::from_secs(1);
/// The closest together one tenant's `POST /queries` are admitted in the long
/// run: 400 a second. A submission that comes sooner is held until its turn;
/// one whose turn is more than [`STATUS_HOLD`] away is refused with `429`.
pub const SUBMIT_INTERVAL: Duration = Duration::from_micros(2500);
/// How many submissions a tenant that has been quiet may make back to back
/// before [`SUBMIT_INTERVAL`] spaces them: one second's worth, so a tenant
/// that was stalled for less than that catches up afterwards.
pub const SUBMIT_BURST: u32 = 400;
/// The largest request body accepted.
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// The longest request line or header line accepted.
pub const MAX_LINE_BYTES: usize = 8 << 10;
/// The most header lines accepted.
pub const MAX_HEADERS: usize = 100;
/// How long a connection may make no progress sending its request or taking
/// its response before its thread lets go of it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A translation backend the HTTP facade can proxy (`POST /translate`).
pub trait TranslateBackend: Send + Sync {
    fn translate_json(&self, request: &str) -> String;
}

/// What every connection thread shares with [`HttpServer::shutdown`].
#[derive(Default)]
struct Door {
    /// Set once by `shutdown`: stop accepting, stop holding.
    stop: AtomicBool,
    /// Per tenant, when its next submission is due were it to have no burst
    /// allowance left. A tenant whose time has passed needs no entry.
    due: Mutex<HashMap<String, Instant>>,
    /// Notified by `shutdown` so held submissions read `stop` again.
    wake: Condvar,
}

/// Tenants remembered in [`Door::due`] before the ones whose time has
/// passed are dropped.
const DUE_SWEEP: usize = 1024;

impl Door {
    /// Hold this thread until `tenant`'s next submission may pass: at once
    /// while it has burst allowance, else [`SUBMIT_INTERVAL`] after the one
    /// before. Refuses, with the status line and the reason, a submission
    /// whose turn is more than [`STATUS_HOLD`] away (it takes no turn then)
    /// and one that is held when the server stops.
    fn admit(&self, tenant: &str) -> std::result::Result<(), (&'static str, &'static str)> {
        let now = Instant::now();
        let mut due = self.due.lock();
        if due.len() >= DUE_SWEEP {
            due.retain(|_, at| *at > now);
        }
        let at = due.get(tenant).map_or(now, |at| (*at).max(now));
        let allowance = SUBMIT_INTERVAL * (SUBMIT_BURST - 1);
        let turn = at.checked_sub(allowance).unwrap_or(now);
        if turn > now + STATUS_HOLD {
            return Err((
                "429 Too Many Requests",
                "tenant submits faster than 400 queries a second",
            ));
        }
        due.insert(tenant.to_string(), at + SUBMIT_INTERVAL);
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Err(("503 Service Unavailable", "server is shutting down"));
            }
            let left = turn.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(());
            }
            self.wake.wait_for(&mut due, left);
        }
    }
}

/// The HTTP server handle; dropping it does not stop the server — call
/// [`HttpServer::shutdown`].
pub struct HttpServer {
    addr: SocketAddr,
    server: Arc<QueryServer>,
    door: Arc<Door>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Start serving on `127.0.0.1:<port>` (port 0 picks a free port).
    pub fn start(
        server: Arc<QueryServer>,
        translator: Option<Arc<dyn TranslateBackend>>,
        port: u16,
    ) -> Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let accept = move || listener.accept().map(|(stream, _)| stream);
        Ok(HttpServer::serve(addr, accept, server, translator))
    }

    /// Serve the connections `accept` yields (it blocks until there is one).
    /// Apart from [`HttpServer::start`], tests call this to make `accept`
    /// fail; `addr` is where a connection wakes a blocked `accept`.
    fn serve(
        addr: SocketAddr,
        mut accept: impl FnMut() -> io::Result<TcpStream> + Send + 'static,
        server: Arc<QueryServer>,
        translator: Option<Arc<dyn TranslateBackend>>,
    ) -> HttpServer {
        let door = Arc::new(Door::default());
        let accept_errors = server.registry().counter(
            "pixels_http_accept_errors_total",
            "accept() calls that failed; the server kept accepting",
        );
        let handle = {
            let (server, door) = (server.clone(), door.clone());
            std::thread::spawn(move || {
                let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
                loop {
                    match accept() {
                        Ok(stream) => {
                            let (server, translator, door) =
                                (server.clone(), translator.clone(), door.clone());
                            // Reap finished connection threads before spawning,
                            // so long-running servers don't accumulate handles.
                            workers.retain(|w| !w.is_finished());
                            workers.push(std::thread::spawn(move || {
                                let _ = handle_connection(
                                    stream,
                                    &server,
                                    translator.as_deref(),
                                    &door,
                                );
                            }));
                        }
                        // `EMFILE` or `ECONNABORTED` says nothing about the
                        // next connection: only the stop flag ends the loop.
                        Err(_) => {
                            accept_errors.add(1);
                            std::thread::yield_now();
                        }
                    }
                    // `shutdown` sets the flag, then connects to get here.
                    // What was accepted may as well be a client that came
                    // just before: it is served like any other.
                    if door.stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                for w in workers {
                    let _ = w.join();
                }
            })
        };
        HttpServer {
            addr,
            server,
            door,
            handle: Some(handle),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections, answer every held `GET` with the status
    /// as it stands, and join the accept loop and its connection threads.
    pub fn shutdown(mut self) {
        self.door.stop.store(true, Ordering::SeqCst);
        self.server.wake_waiters();
        // Through the lock, so no held submission is between reading the
        // flag and starting to wait.
        drop(self.door.due.lock());
        self.door.wake.notify_all();
        // The loop is blocked in `accept`; a connection wakes it. Should the
        // connect fail the loop cannot be woken, and joining it would hang.
        if TcpStream::connect(self.addr).is_ok() {
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }
}

struct Request {
    method: String,
    path: String,
    body: String,
}

/// Why a connection got no routed answer.
enum Unserved {
    /// The connection closed, timed out or failed: nothing to answer.
    Io(io::Error),
    /// A request this server will not take: the status line and the reason.
    Refused(&'static str, &'static str),
}

impl From<io::Error> for Unserved {
    fn from(e: io::Error) -> Unserved {
        Unserved::Io(e)
    }
}

const BAD_REQUEST: &str = "400 Bad Request";
const HEADERS_TOO_LARGE: &str = "431 Request Header Fields Too Large";

/// Read one line of at most [`MAX_LINE_BYTES`], without its line ending.
fn read_line(reader: &mut impl BufRead) -> std::result::Result<String, Unserved> {
    let mut line = Vec::new();
    let read = reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if read == 0 {
        // Closed before the request was whole: no one to answer.
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(Unserved::Refused(
            HEADERS_TOO_LARGE,
            "request or header line too long",
        ));
    }
    Ok(String::from_utf8_lossy(&line).trim_end().to_string())
}

/// Read one request, refusing what exceeds the limits in the module docs.
fn read_request(reader: &mut impl BufRead) -> std::result::Result<Request, Unserved> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(Unserved::Refused(BAD_REQUEST, "malformed request line"));
    };

    // Headers: we only need Content-Length.
    let mut content_length = 0usize;
    for seen in 0.. {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if seen == MAX_HEADERS {
            return Err(Unserved::Refused(HEADERS_TOO_LARGE, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Unserved::Refused(BAD_REQUEST, "malformed header"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| Unserved::Refused(BAD_REQUEST, "malformed Content-Length"))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Unserved::Refused(
            "413 Payload Too Large",
            "body larger than 1 MiB",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn handle_connection(
    mut stream: TcpStream,
    server: &QueryServer,
    translator: Option<&dyn TranslateBackend>,
    door: &Door,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    // A client that never reads must not pin this thread either.
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let ((status, content_type, payload), refused) = match read_request(&mut reader) {
        Ok(r) => (
            route(&r.method, &r.path, &r.body, server, translator, door),
            false,
        ),
        Err(Unserved::Refused(status, reason)) => {
            ((status, "application/json", error_payload(reason)), true)
        }
        Err(Unserved::Io(e)) => return Err(e),
    };
    // One buffer, one write: the response leaves in as few segments as fit.
    let mut out = String::with_capacity(payload.len() + 128);
    // Writing to a `String` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len(),
    );
    stream.write_all(out.as_bytes())?;
    if refused {
        // Part of the refused request may still be on its way. Closing over
        // unread bytes resets the connection and can cost the client the
        // response, so say we are done and take (a bounded amount of) it.
        stream.shutdown(Shutdown::Write)?;
        io::copy(&mut reader.take(MAX_BODY_BYTES as u64), &mut io::sink())?;
    }
    Ok(())
}

fn error_payload(message: &str) -> String {
    Json::object([("error", Json::string(message))]).to_compact_string()
}

/// The `GET /queries/<id>` payload: the status, plus columns and rows once
/// there is a result.
fn status_payload(info: &QueryInfo) -> Json {
    let mut json = info.to_json();
    if let (Json::Object(map), Some(result)) = (&mut json, &info.result) {
        let rows: Vec<Json> = result
            .to_rows()
            .into_iter()
            .map(|row| Json::Array(row.into_iter().map(|v| value_to_json(&v)).collect()))
            .collect();
        let cols: Vec<Json> = result
            .schema()
            .fields()
            .iter()
            .map(|f| Json::string(f.name.clone()))
            .collect();
        map.insert("columns".into(), Json::Array(cols));
        map.insert("rows".into(), Json::Array(rows));
    }
    json
}

fn route(
    method: &str,
    path: &str,
    body: &str,
    server: &QueryServer,
    translator: Option<&dyn TranslateBackend>,
    door: &Door,
) -> (&'static str, &'static str, String) {
    // The two non-JSON endpoints: Prometheus text and the JSONL journal.
    if method == "GET" && path == "/metrics" {
        return ("200 OK", "text/plain; version=0.0.4", server.metrics_text());
    }
    if method == "GET" && path == "/journal" {
        return ("200 OK", "application/x-ndjson", server.journal_jsonl());
    }
    let ok = |json: Json| Ok(("200 OK", json.to_compact_string()));
    let result = (|| -> Result<(&'static str, String)> {
        match (method, path) {
            ("GET", "/health") => ok(Json::object([("status", Json::string("ok"))])),
            ("GET", "/slo") => ok(server.slo_json()),
            ("GET", "/ledger") => ok(server.ledger_json()),
            ("GET", "/tenants") => ok(server.tenants_json()),
            ("POST", "/translate") => {
                let t = translator
                    .ok_or_else(|| Error::Unsupported("no text-to-SQL service attached".into()))?;
                let resp = t.translate_json(body);
                ok(Json::parse(&resp)?)
            }
            ("POST", "/queries") => {
                let req = Json::parse(body)?;
                let text = |key: &str| -> Result<String> {
                    let value = req.get_or_err(key)?.as_str().map(str::to_string);
                    value.ok_or_else(|| Error::Invalid(format!("{key} must be a string")))
                };
                let count = |key: &str| req.get(key).and_then(|v| v.as_i64()).map(|v| v.max(0));
                let submission = QuerySubmission {
                    database: text("database")?,
                    sql: text("sql")?,
                    level: match req.get("level").and_then(|l| l.as_str()) {
                        Some(l) => ServiceLevel::parse(l)?,
                        None => ServiceLevel::Immediate,
                    },
                    result_limit: count("result_limit").map(|v| v as usize),
                    tenant: req
                        .get("tenant")
                        .and_then(|v| v.as_str())
                        .map(str::to_string),
                    // A deadline target switches the query into deadline
                    // mode; `level` is then ignored for scheduling and
                    // pricing.
                    deadline_us: count("deadline_us").map(|v| v as u64),
                };
                if let Err((status, reason)) = door.admit(submission.tenant_name()) {
                    return Ok((status, error_payload(reason)));
                }
                let id = server.submit(submission);
                Ok((
                    "202 Accepted",
                    Json::object([("id", Json::string(id.to_string()))]).to_compact_string(),
                ))
            }
            ("GET", "/queries") => {
                let list = server
                    .list()
                    .iter()
                    .map(|q| q.to_json())
                    .collect::<Vec<_>>();
                ok(Json::object([("queries", Json::Array(list))]))
            }
            ("GET", p) if p.starts_with("/queries/") && p.ends_with("/profile") => {
                let inner = &p["/queries/".len()..p.len() - "/profile".len()];
                let info = server.snapshot(parse_query_id(inner)?)?;
                // The profile is JSON text already: splice it in, keys in
                // the sorted order `Json::Object` would write them.
                Ok((
                    "200 OK",
                    format!(
                        r#"{{"id":"{}","profile":{},"status":"{}"}}"#,
                        info.id,
                        info.profile.as_ref().map_or("null", |p| p.as_str()),
                        info.status.name(),
                    ),
                ))
            }
            ("GET", p) if p.starts_with("/queries/") => {
                let id = parse_query_id(&p["/queries/".len()..])?;
                ok(status_payload(&*server.await_terminal(
                    id,
                    STATUS_HOLD,
                    &door.stop,
                )?))
            }
            _ => Err(Error::NotFound(format!("no route for {method} {path}"))),
        }
    })();
    match result {
        Ok((status, payload)) => (status, "application/json", payload),
        Err(e) => {
            let status = match e.kind() {
                "not_found" => "404 Not Found",
                "invalid" | "parse" => BAD_REQUEST,
                "unsupported" => "501 Not Implemented",
                _ => "500 Internal Server Error",
            };
            (status, "application/json", error_payload(&e.to_string()))
        }
    }
}

fn parse_query_id(s: &str) -> Result<QueryId> {
    s.trim_start_matches("q-")
        .parse::<u64>()
        .map(QueryId)
        .map_err(|_| Error::Invalid(format!("bad query id: {s}")))
}

fn value_to_json(v: &pixels_common::Value) -> Json {
    use pixels_common::Value;
    match v {
        Value::Null => Json::Null,
        Value::Boolean(b) => Json::Bool(*b),
        Value::Int32(x) => Json::Number(*x as f64),
        Value::Int64(x) => Json::Number(*x as f64),
        Value::Float64(x) => Json::Number(*x),
        other => Json::string(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::PriceSchedule;
    use pixels_catalog::Catalog;
    use pixels_chaos::{FaultInjector, FaultPlan, FaultSite, RetryPolicy, SiteSpec};
    use pixels_obs::MetricsRegistry;
    use pixels_storage::{chaos_stack, InMemoryObjectStore};
    use pixels_turbo::{EngineConfig, TurboEngine};
    use pixels_workload::{load_tpch, TpchConfig};
    use std::time::Instant;

    /// A query server on generated TPC-H data and a registry of its own. The
    /// first `slow_gets` object-store GETs each take `get_ms` longer, which
    /// is how a test makes a query run for a known time.
    fn query_server(vm_slots: usize, get_ms: u64, slow_gets: u64) -> Arc<QueryServer> {
        let catalog = Catalog::shared();
        let store = InMemoryObjectStore::shared();
        load_tpch(
            &catalog,
            store.as_ref(),
            "tpch",
            &TpchConfig {
                scale: 0.0005,
                seed: 1,
                row_group_rows: 512,
                files_per_table: 1,
            },
        )
        .unwrap();
        let delays = SiteSpec::delays(1.0, get_ms * 1000, get_ms * 1000).capped(slow_gets);
        let plan = FaultPlan::none(1).with(FaultSite::StorageGet, delays);
        let store = chaos_stack(
            store,
            Arc::new(FaultInjector::new(&plan)),
            RetryPolicy::object_store(),
            pixels_obs::WallClock::shared(),
        );
        let config = EngineConfig {
            vm_slots,
            ..EngineConfig::default()
        };
        let engine =
            TurboEngine::new(catalog, store, config).with_registry(MetricsRegistry::shared());
        Arc::new(QueryServer::new(Arc::new(engine), PriceSchedule::default()))
    }

    fn start() -> HttpServer {
        HttpServer::start(query_server(4, 0, 0), None, 0).unwrap()
    }

    /// Send `raw` and read the response to its end: head and payload.
    fn exchange(addr: SocketAddr, raw: &[u8]) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, payload) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), payload.to_string())
    }

    /// The status line of the response to `raw`.
    fn status_line(addr: SocketAddr, raw: &str) -> String {
        let (head, _) = exchange(addr, raw.as_bytes());
        head.lines().next().unwrap().to_string()
    }

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, Json) {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let (head, payload) = exchange(addr, raw.as_bytes());
        let status = head.lines().next().unwrap().to_string();
        (status, Json::parse(&payload).unwrap())
    }

    fn post_query(addr: SocketAddr, body: &str) -> String {
        let (status, json) = request(addr, "POST", "/queries", body);
        assert!(status.contains("202"), "{status}");
        json.get("id").unwrap().as_str().unwrap().to_string()
    }

    fn status_of(json: &Json) -> &str {
        json.get("status").unwrap().as_str().unwrap()
    }

    /// `GET /queries/<id>` until the status is terminal: the payloads seen.
    fn get_until_terminal(addr: SocketAddr, id: &str) -> Vec<Json> {
        let mut seen = Vec::new();
        loop {
            let (status, json) = request(addr, "GET", &format!("/queries/{id}"), "");
            assert!(status.contains("200"), "{status}");
            let terminal = !["pending", "running"].contains(&status_of(&json));
            seen.push(json);
            if terminal {
                return seen;
            }
        }
    }

    #[test]
    fn health_and_404() {
        let srv = start();
        let (status, json) = request(srv.addr(), "GET", "/health", "");
        assert!(status.contains("200"));
        assert_eq!(json.get("status").unwrap().as_str(), Some("ok"));
        let (status, json) = request(srv.addr(), "GET", "/nope", "");
        assert!(status.contains("404"), "{status}");
        assert!(json.get("error").is_some());
        srv.shutdown();
    }

    #[test]
    fn submit_poll_fetch_result() {
        let srv = start();
        let id = post_query(
            srv.addr(),
            r#"{"database":"tpch","sql":"SELECT COUNT(*) AS n FROM region","level":"relaxed"}"#,
        );
        let last = get_until_terminal(srv.addr(), &id).pop().unwrap();
        assert_eq!(status_of(&last), "finished");
        assert_eq!(last.get("service_level").unwrap().as_str(), Some("relaxed"));
        let rows = last.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].as_array().unwrap()[0].as_i64(), Some(5));
        assert_eq!(
            last.get("columns").unwrap().as_array().unwrap()[0].as_str(),
            Some("n")
        );

        // The listing shows it too.
        let (_, list) = request(srv.addr(), "GET", "/queries", "");
        assert_eq!(list.get("queries").unwrap().as_array().unwrap().len(), 1);
        srv.shutdown();
    }

    #[test]
    fn first_get_answers_with_the_rows_of_a_query_still_running() {
        // One GET of the query's takes 60 ms longer: it runs at least that.
        let srv = HttpServer::start(query_server(4, 60, 1), None, 0).unwrap();
        let id = post_query(
            srv.addr(),
            r#"{"database":"tpch","sql":"SELECT COUNT(*) AS n FROM region","level":"relaxed"}"#,
        );
        let (status, first) = request(srv.addr(), "GET", &format!("/queries/{id}"), "");
        assert!(status.contains("200"), "{status}");
        assert_eq!(status_of(&first), "finished", "the first GET is the last");
        assert!(first.get("execution_ms").unwrap().as_f64().unwrap() >= 50.0);
        let rows = first.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_i64(), Some(5));
        srv.shutdown();
    }

    #[test]
    fn held_get_gives_up_at_the_bound_and_the_next_one_carries_on() {
        // One VM slot, held for well over the hold bound.
        let server = query_server(1, 0, 0);
        let engine = server.engine().clone();
        let srv = HttpServer::start(server, None, 0).unwrap();
        let holder = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                engine.hold_slots(|| std::thread::sleep(Duration::from_millis(2100)))
            })
        };
        while !engine.is_busy() {
            std::thread::yield_now();
        }
        let id = post_query(
            srv.addr(),
            r#"{"database":"tpch","sql":"SELECT COUNT(*) AS n FROM region","level":"best-of-effort"}"#,
        );
        let asked = Instant::now();
        let seen = get_until_terminal(srv.addr(), &id);
        // Parked behind the busy slot, the first GET comes back `pending`
        // with 200 once the bound has passed: no hang, no error.
        assert_eq!(status_of(&seen[0]), "pending", "{:?}", seen[0]);
        assert!(seen[0].get("rows").is_none());
        // Each GET that found nothing was held for the bound, so only a
        // handful were needed, and the last one carries the rows.
        assert!(seen.len() >= 2 && seen.len() <= 8, "{} GETs", seen.len());
        assert!(asked.elapsed() >= STATUS_HOLD * (seen.len() as u32 - 1));
        let last = seen.last().unwrap();
        assert_eq!(status_of(last), "finished");
        let rows = last.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_i64(), Some(5));
        holder.join().unwrap();
        srv.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_idle_and_with_a_get_held() {
        let idle = start();
        let asked = Instant::now();
        idle.shutdown();
        assert!(asked.elapsed() < Duration::from_millis(200), "idle");

        // A query that runs for seconds, and a GET held on it.
        let srv = HttpServer::start(query_server(4, 1500, 2), None, 0).unwrap();
        let addr = srv.addr();
        let id = post_query(
            addr,
            r#"{"database":"tpch","sql":"SELECT COUNT(*) FROM region","level":"relaxed"}"#,
        );
        let mut held = TcpStream::connect(addr).unwrap();
        write!(held, "GET /queries/{id} HTTP/1.1\r\n\r\n").unwrap();
        // Held already or not yet read: either way shutdown must not wait
        // for the query or the bound, and the GET gets a proper answer.
        let asked = Instant::now();
        srv.shutdown();
        assert!(asked.elapsed() < Duration::from_millis(200), "GET held");
        let mut response = String::new();
        held.read_to_string(&mut response).unwrap();
        assert!(asked.elapsed() < Duration::from_millis(200), "GET answered");
        let (head, payload) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let status = Json::parse(payload).unwrap();
        assert!(["pending", "running"].contains(&status_of(&status)));
    }

    #[test]
    fn a_quiet_tenant_bursts_and_is_then_spaced_while_another_is_not() {
        let door = Door::default();
        let asked = Instant::now();
        for _ in 0..SUBMIT_BURST {
            door.admit("busy").unwrap();
        }
        let burst = asked.elapsed();
        assert!(burst < SUBMIT_INTERVAL * SUBMIT_BURST / 4, "{burst:?}");
        // The allowance is spent: every further one waits out its interval.
        for _ in 0..8 {
            door.admit("busy").unwrap();
        }
        assert!(asked.elapsed() >= SUBMIT_INTERVAL * 8);
        // Another tenant's turn does not queue behind this one's.
        let asked = Instant::now();
        door.admit("calm").unwrap();
        assert!(asked.elapsed() < SUBMIT_INTERVAL);
        // Tenants whose time has passed are forgotten once there are many.
        let past = Instant::now();
        door.due
            .lock()
            .extend((0..DUE_SWEEP).map(|i| (format!("t{i}"), past)));
        door.admit("calm").unwrap();
        assert_eq!(door.due.lock().len(), 2);
    }

    /// Put `tenant` so far ahead of its pace that its next submission's turn
    /// is `ahead` away.
    fn run_ahead(srv: &HttpServer, tenant: &str, ahead: Duration) {
        let due = Instant::now() + SUBMIT_INTERVAL * (SUBMIT_BURST - 1) + ahead;
        srv.door.due.lock().insert(tenant.to_string(), due);
    }

    #[test]
    fn a_submission_ahead_of_its_turn_is_held_and_one_too_far_ahead_refused() {
        let srv = start();
        let addr = srv.addr();
        let body = |tenant: &str| {
            format!(
                r#"{{"database":"tpch","sql":"SELECT COUNT(*) FROM region","tenant":"{tenant}"}}"#
            )
        };
        run_ahead(&srv, "eager", Duration::from_millis(80));
        let asked = Instant::now();
        let id = post_query(addr, &body("eager"));
        assert!(
            asked.elapsed() >= Duration::from_millis(80),
            "held for its turn"
        );
        let last = get_until_terminal(addr, &id).pop().unwrap();
        assert_eq!(status_of(&last), "finished");

        run_ahead(&srv, "flood", STATUS_HOLD * 2);
        let asked = Instant::now();
        let (status, json) = request(addr, "POST", "/queries", &body("flood"));
        assert!(status.contains("429"), "{status}");
        assert!(json.get("error").is_some());
        assert!(asked.elapsed() < STATUS_HOLD, "refused at once, not held");
        // Nobody else is: the server keeps serving other tenants.
        post_query(addr, &body("calm"));
        srv.shutdown();
    }

    #[test]
    fn shutdown_is_prompt_with_a_submission_held() {
        let srv = start();
        let addr = srv.addr();
        run_ahead(&srv, "eager", STATUS_HOLD - Duration::from_millis(100));
        let held = std::thread::spawn(move || {
            let body = r#"{"database":"tpch","sql":"SELECT 1","tenant":"eager"}"#;
            request(addr, "POST", "/queries", body).0
        });
        // Held already or not yet read: either way shutdown does not wait.
        std::thread::sleep(Duration::from_millis(50));
        let asked = Instant::now();
        srv.shutdown();
        assert!(asked.elapsed() < Duration::from_millis(200));
        let status = held.join().unwrap();
        assert!(status.contains("503"), "{status}");
    }

    #[test]
    fn failed_accepts_are_counted_and_the_server_keeps_serving() {
        let server = query_server(4, 0, 0);
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        // The first three accepts fail the way a full descriptor table or an
        // aborted connection makes them fail.
        let mut failures = vec![
            io::Error::from_raw_os_error(24), // EMFILE
            io::Error::from(io::ErrorKind::ConnectionAborted),
            io::Error::from_raw_os_error(24),
        ];
        let accept = move || match failures.pop() {
            Some(e) => Err(e),
            None => listener.accept().map(|(stream, _)| stream),
        };
        let srv = HttpServer::serve(addr, accept, server.clone(), None);
        for _ in 0..2 {
            let (status, _) = request(addr, "GET", "/health", "");
            assert!(status.contains("200"), "{status}");
        }
        let text = server.metrics_text();
        assert!(text.contains("pixels_http_accept_errors_total 3"), "{text}");
        srv.shutdown();
    }

    #[test]
    fn oversized_requests_are_refused_and_the_server_keeps_serving() {
        let srv = start();
        let addr = srv.addr();
        let post = "POST /queries HTTP/1.1\r\n";
        // A body over the limit is refused, not cut short and parsed.
        let declared = format!("{post}Content-Length: {}\r\n\r\n{{", MAX_BODY_BYTES + 1);
        let (head, payload) = exchange(addr, declared.as_bytes());
        assert!(head.starts_with("HTTP/1.1 413"), "{head}");
        assert!(Json::parse(&payload).unwrap().get("error").is_some());
        // At the limit it is read whole (and is not JSON).
        let full = format!(
            "{post}Content-Length: {MAX_BODY_BYTES}\r\n\r\n{}",
            "x".repeat(MAX_BODY_BYTES)
        );
        assert!(status_line(addr, &full).contains("400"));
        // A header line, or a request line, longer than the limit.
        let long = "a".repeat(MAX_LINE_BYTES * 3);
        let status = status_line(addr, &format!("{post}X-Pad: {long}\r\n\r\n"));
        assert!(status.contains("431"), "{status}");
        let status = status_line(addr, &format!("GET /{long} HTTP/1.1\r\n\r\n"));
        assert!(status.contains("431"), "{status}");
        // More headers than the limit; exactly the limit is fine.
        let headers = |n: usize| "X-H: 1\r\n".repeat(n);
        let many = format!("GET /health HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS + 1));
        assert!(status_line(addr, &many).contains("431"));
        let most = format!("GET /health HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS));
        assert!(status_line(addr, &most).contains("200"));
        // What cannot be read as a request at all.
        for raw in [
            "\r\n\r\n",
            "GET\r\n\r\n",
            "GET /health HTTP/1.1\r\nno colon\r\n\r\n",
            "POST /queries HTTP/1.1\r\nContent-Length: many\r\n\r\n",
            "POST /queries HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        ] {
            let status = status_line(addr, raw);
            assert!(status.contains("400"), "{raw:?}: {status}");
        }
        let (status, _) = request(addr, "GET", "/health", "");
        assert!(status.contains("200"), "{status}");
        srv.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_valid_prometheus_text() {
        let srv = start();
        // Run one query so the exec/query families exist.
        let id = post_query(
            srv.addr(),
            r#"{"database":"tpch","sql":"SELECT COUNT(*) FROM orders"}"#,
        );
        get_until_terminal(srv.addr(), &id);

        // /metrics is plain text, not JSON.
        let (head, body) = exchange(
            srv.addr(),
            b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        pixels_obs::require_families(
            &body,
            &[
                "pixels_queries_total",
                "pixels_scheduler_queue_depth",
                "pixels_exec_bytes_scanned_total",
                "pixels_cache_footer_hits_total",
                "pixels_cache_chunk_hits_total",
                "pixels_scan_prefetch_issued_total",
                "pixels_storage_get_requests_total",
                "pixels_http_accept_errors_total",
            ],
        )
        .expect("scrape must be valid and complete");
        srv.shutdown();
    }

    #[test]
    fn profile_endpoint_serves_the_retained_text() {
        let server = query_server(4, 0, 0);
        let srv = HttpServer::start(server.clone(), None, 0).unwrap();
        let id = post_query(
            srv.addr(),
            r#"{"database":"tpch","sql":"SELECT COUNT(*) FROM orders"}"#,
        );
        get_until_terminal(srv.addr(), &id);
        let info = server.status(parse_query_id(&id).unwrap()).unwrap();
        let retained = info.profile.expect("a terminal query has a profile");
        assert!(retained.as_str().contains("\"name\":\"query\""));
        assert!(retained.as_str().contains("\"name\":\"scan\""));

        // The endpoint splices that text in unchanged, and the whole payload
        // is what building it as a `Json` tree would have written.
        let path = format!("GET /queries/{id}/profile HTTP/1.1\r\n\r\n");
        let (head, payload) = exchange(srv.addr(), path.as_bytes());
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let tree = Json::object([
            ("id", Json::string(id.clone())),
            ("status", Json::string("finished")),
            ("profile", retained.to_json()),
        ]);
        assert_eq!(payload, tree.to_compact_string());
        assert!(payload.contains(retained.as_str()));

        // Before the query is terminal there is no profile.
        let (status, j) = request(srv.addr(), "GET", "/queries/q-999/profile", "");
        assert!(status.contains("404"), "{status}: {j}");
        srv.shutdown();
    }

    #[test]
    fn slo_ledger_and_journal_endpoints() {
        let srv = start();
        let id = post_query(
            srv.addr(),
            r#"{"database":"tpch","sql":"SELECT COUNT(*) FROM region","tenant":"acme"}"#,
        );
        let last = get_until_terminal(srv.addr(), &id).pop().unwrap();
        assert_eq!(last.get("tenant").unwrap().as_str(), Some("acme"));
        let (status, slo) = request(srv.addr(), "GET", "/slo", "");
        assert!(status.contains("200"), "{status}");
        let immediate = slo.get("levels").unwrap().get("immediate").unwrap();
        assert_eq!(immediate.get("good_total").unwrap().as_i64(), Some(1));
        assert!(immediate.get("burn_rate").unwrap().get("5m").is_some());
        let (status, ledger) = request(srv.addr(), "GET", "/ledger", "");
        assert!(status.contains("200"), "{status}");
        assert_eq!(
            ledger
                .get("by_tenant")
                .unwrap()
                .get("acme")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_i64(),
            Some(1)
        );
        // /journal is JSON lines, one record per terminal query.
        let (head, body) = exchange(
            srv.addr(),
            b"GET /journal HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/x-ndjson"), "{head}");
        let entries = pixels_obs::QueryJournal::parse_jsonl(&body).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].tenant, "acme");
        srv.shutdown();
    }

    #[test]
    fn bad_requests_are_400() {
        let srv = start();
        let (status, _) = request(srv.addr(), "POST", "/queries", "not json");
        assert!(status.contains("400"), "{status}");
        let (status, _) = request(srv.addr(), "POST", "/queries", r#"{"database":"tpch"}"#);
        assert!(status.contains("400"), "{status}");
        let (status, _) = request(
            srv.addr(),
            "POST",
            "/queries",
            r#"{"database":"tpch","sql":"SELECT 1","level":"platinum"}"#,
        );
        assert!(status.contains("400"), "{status}");
        let (status, _) = request(srv.addr(), "GET", "/queries/q-999", "");
        assert!(status.contains("404"), "{status}");
        srv.shutdown();
    }

    #[test]
    fn translate_without_backend_is_501() {
        let srv = start();
        let (status, _) = request(
            srv.addr(),
            "POST",
            "/translate",
            r#"{"question":"x","database":"tpch"}"#,
        );
        assert!(status.contains("501"), "{status}");
        srv.shutdown();
    }

    #[test]
    fn failed_query_reports_error_status() {
        let srv = start();
        let id = post_query(
            srv.addr(),
            r#"{"database":"tpch","sql":"SELECT zap FROM region"}"#,
        );
        let last = get_until_terminal(srv.addr(), &id).pop().unwrap();
        assert_eq!(status_of(&last), "failed");
        assert!(last.get("error").unwrap().as_str().unwrap().contains("zap"));
        srv.shutdown();
    }
}
