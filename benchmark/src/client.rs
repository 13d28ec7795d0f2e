//! The load generator: closed-loop client threads speaking the fixed client
//! protocol over TCP, timing every HTTP operation and checking every
//! response against the goldens.
//!
//! Protocol, per query: `POST /queries` (tenant `t<client>`), then
//! `GET /queries/<id>` at once and again after each 1 ms sleep until the
//! status is terminal; the terminal response carries the rows. Latency runs
//! from the start of the POST's connect to the terminal response fully read.
//! Each operation is its own connection (the server closes after replying).

use crate::golden::{rows_match, Golden};
use crate::host;
use crate::spec::Level;
use crate::stream::{Item, Source, Streams, QUESTIONS, QUESTION_DATABASE};
use crate::trace::{recorder, NO_QUERY};
use pixels_common::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const POLL_SLEEP: Duration = Duration::from_millis(1);
/// Failure descriptions kept per client for the report.
const KEPT_FAILURES: usize = 5;

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One HTTP/1.1 exchange on a fresh connection.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    Ok(Reply {
        status,
        body: payload.to_string(),
    })
}

/// One loop iteration of a client.
pub struct Sample {
    /// Index of the iteration's item in the client's stream.
    pub item: usize,
    pub level: Level,
    /// The client protocol's timings (its `terminal` payload is dropped once
    /// verified). All zero when the translator's answer stopped the
    /// iteration before any query was sent.
    pub x: Exchange,
    /// The translator returned the blessed SQL (`None`: did not ask).
    pub translation_exact: Option<bool>,
    /// Finished, and the rows are the golden rows.
    pub ok: bool,
}

#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// Latency of every single `GET /queries/<id>`.
    pub get_ms: Vec<f64>,
    /// CPU seconds the client thread used.
    pub cpu_s: f64,
    pub failures: Vec<String>,
}

pub enum Until {
    /// Run this many iterations.
    Count(usize),
    /// Start no iteration after this instant.
    Deadline(Instant),
}

pub struct Phase<'a> {
    pub addr: SocketAddr,
    pub streams: &'a Streams,
    pub golden: &'a Golden,
    pub scrape_every: Option<usize>,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

impl Phase<'_> {
    /// Run every client from its cursor until `until`; cursors advance.
    pub fn run(&self, cursors: &mut [usize], until: &Until) -> Vec<ClientLog> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = cursors
                .iter_mut()
                .enumerate()
                .map(|(client, cursor)| {
                    scope.spawn(move || self.client_loop(client, cursor, until))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    fn client_loop(&self, client: usize, cursor: &mut usize, until: &Until) -> ClientLog {
        let cpu_before = host::thread_cpu_s();
        let items = &self.streams.clients[client];
        let mut log = ClientLog::default();
        let mut done = 0;
        loop {
            match until {
                Until::Count(n) if done == *n => break,
                Until::Deadline(t) if Instant::now() >= *t => break,
                _ => {}
            }
            // A stream that runs out starts over; generation sizes streams
            // so that this does not happen at any rate seen so far.
            let index = *cursor % items.len();
            let sample = self.iteration(client, index, items[index], &mut log);
            log.samples.push(sample);
            *cursor += 1;
            done += 1;
            if let Some(every) = self.scrape_every {
                if client == 0 && done % every == 0 {
                    match http(self.addr, "GET", "/metrics", "") {
                        Ok(r) if r.status == 200 => {}
                        other => fail(&mut log, format!("GET /metrics: {}", describe(&other))),
                    }
                }
            }
        }
        log.cpu_s = host::thread_cpu_s() - cpu_before;
        log
    }

    fn iteration(&self, client: usize, index: usize, item: Item, log: &mut ClientLog) -> Sample {
        let mut sample = Sample {
            item: index,
            level: item.level,
            x: Exchange::not_run(),
            translation_exact: None,
            ok: false,
        };
        let (database, sql) = match item.source {
            Source::Sql(q) => {
                let q = &self.streams.queries[q];
                (q.database, q.sql.clone())
            }
            Source::Question(q) => {
                let question = QUESTIONS[q];
                let reply = http(
                    self.addr,
                    "POST",
                    "/translate",
                    &Json::object([
                        ("question", Json::string(question)),
                        ("database", Json::string(QUESTION_DATABASE)),
                    ])
                    .to_compact_string(),
                );
                let sql = reply
                    .as_ref()
                    .ok()
                    .and_then(|r| Json::parse(&r.body).ok())
                    .and_then(|j| j.get("sql").and_then(Json::as_str).map(str::to_string));
                let exact = sql.as_ref() == self.golden.translations.get(question);
                sample.translation_exact = Some(exact);
                match sql {
                    Some(sql) if exact => (QUESTION_DATABASE, sql),
                    _ => {
                        fail(log, format!("translate {question:?}: {}", describe(&reply)));
                        return sample;
                    }
                }
            }
        };

        let tenant = format!("t{client}");
        sample.x = query_over_http(
            self.addr,
            &tenant,
            database,
            &sql,
            item.level,
            0,
            &mut log.get_ms,
        );
        if let Some(error) = sample.x.error.take() {
            fail(log, error);
        }
        let (id, terminal) = (sample.x.id.unwrap_or(0), sample.x.terminal.take());

        // Verification is outside the timed interval.
        if let Some(json) = terminal {
            let status = json.get("status").and_then(Json::as_str).unwrap_or("?");
            let expected = self
                .golden
                .queries
                .get(&(database.to_string(), sql.clone()));
            let rows = json.get("rows").and_then(Json::as_array);
            match (status, expected, rows) {
                ("finished", Some(expected), Some(rows)) if rows_match(expected, rows) => {
                    sample.ok = true;
                }
                ("finished", Some(_), Some(_)) => {
                    fail(log, format!("q-{id}: rows differ from golden: {sql}"))
                }
                ("finished", None, _) => fail(log, format!("q-{id}: no golden for: {sql}")),
                _ => fail(
                    log,
                    format!(
                        "q-{id}: {status}: {}",
                        json.get("error").and_then(Json::as_str).unwrap_or("")
                    ),
                ),
            }
        }
        sample
    }
}

/// What one run of the client protocol observed.
pub struct Exchange {
    /// The server's query id; `None` when the POST itself failed.
    pub id: Option<u64>,
    pub post_ms: f64,
    pub polls: u32,
    /// The terminal status payload, when one arrived.
    pub terminal: Option<Json>,
    pub payload_bytes: usize,
    pub latency_ms: f64,
    /// When the terminal response was fully read.
    pub end: Instant,
    pub error: Option<String>,
}

impl Exchange {
    fn not_run() -> Exchange {
        Exchange {
            id: None,
            post_ms: 0.0,
            polls: 0,
            terminal: None,
            payload_bytes: 0,
            latency_ms: 0.0,
            end: Instant::now(),
            error: None,
        }
    }
}

/// Run the client protocol for one query. Spans `client.query` →
/// `http.post`, `http.get`… are recorded under `parent`; the latency of each
/// GET is appended to `get_ms`.
pub fn query_over_http(
    addr: SocketAddr,
    tenant: &str,
    database: &str,
    sql: &str,
    level: Level,
    parent: u32,
    get_ms: &mut Vec<f64>,
) -> Exchange {
    let rec = recorder();
    let start = Instant::now();
    let root = rec.open("client.query", parent, NO_QUERY);
    let post_span = rec.open("http.post", root.id(), NO_QUERY);
    let body = Json::object([
        ("database", Json::string(database)),
        ("sql", Json::string(sql)),
        ("level", Json::string(level.wire_name())),
        ("tenant", Json::string(tenant)),
    ])
    .to_compact_string();
    let posted = http(addr, "POST", "/queries", &body);
    let mut x = Exchange {
        post_ms: ms(start),
        ..Exchange::not_run()
    };
    x.id = posted
        .as_ref()
        .ok()
        .filter(|r| r.status == 202)
        .and_then(|r| Json::parse(&r.body).ok())
        .and_then(|j| {
            j.get("id")?
                .as_str()?
                .strip_prefix("q-")?
                .parse::<u64>()
                .ok()
        });
    let span_query = x.id.map(|id| id as i64);
    rec.finish(post_span, span_query);
    match x.id {
        None => x.error = Some(format!("POST /queries: {}", describe(&posted))),
        Some(id) => {
            let path = format!("/queries/q-{id}");
            loop {
                let get_start = Instant::now();
                let get_span = rec.open("http.get", root.id(), id as i64);
                let reply = http(addr, "GET", &path, "");
                rec.finish(get_span, None);
                get_ms.push(ms(get_start));
                x.polls += 1;
                let parsed = match &reply {
                    Ok(r) if r.status == 200 => Json::parse(&r.body).ok(),
                    _ => None,
                };
                let Some(json) = parsed else {
                    x.error = Some(format!("GET {path}: {}", describe(&reply)));
                    break;
                };
                match json.get("status").and_then(Json::as_str) {
                    Some("pending" | "running") => std::thread::sleep(POLL_SLEEP),
                    _ => {
                        x.payload_bytes = reply.map(|r| r.body.len()).unwrap_or(0);
                        x.terminal = Some(json);
                        break;
                    }
                }
            }
        }
    }
    x.end = Instant::now();
    x.latency_ms = ms(start);
    rec.finish(root, span_query);
    x
}

fn fail(log: &mut ClientLog, what: String) {
    if log.failures.len() < KEPT_FAILURES {
        log.failures.push(what);
    }
}

fn describe(reply: &std::io::Result<Reply>) -> String {
    match reply {
        Ok(r) => format!(
            "HTTP {} {}",
            r.status,
            r.body.chars().take(200).collect::<String>()
        ),
        Err(e) => e.to_string(),
    }
}
