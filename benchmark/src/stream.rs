//! Seeded query streams. The program under test only ever sees the SQL text
//! generated here.
//!
//! Templates are parameterised variants of `pixels_workload::TPCH_QUERIES` /
//! `WEBLOG_QUERIES`: every parameter comes from a finite pool (at most 16
//! variants per template, so the goldens stay small) and every `ORDER BY` is
//! extended to a total order (so the expected rows are unique).
//!
//! A stream is a sequence of *blocks*. A block holds every (template or
//! question, service level) pair of the workload's mix exactly as often as
//! the mix says, in seeded order; the variant of a template walks a seeded
//! permutation of its pool. Every seed therefore runs the same multiset of
//! work per block in a different order, so averages over whole blocks (what
//! users are billed per query, say) are comparable between seeds.

use crate::spec::{Level, Mix, WorkloadSpec};

/// SplitMix64: small, fast and owned by the benchmark, so a change to the
/// repository's `rand` shim cannot change the streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A multiset walked in seeded order, reshuffled at every wrap.
struct Cycle<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Cycle<T> {
    fn new(items: Vec<T>) -> Cycle<T> {
        let next = items.len(); // shuffle before the first draw
        Cycle { items, next }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// One SQL template with its finite pool of variants.
pub struct Template {
    pub id: &'static str,
    pub database: &'static str,
    pub heavy: bool,
    variants: fn() -> Vec<String>,
}

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

fn q1() -> Vec<String> {
    let mut v = Vec::new();
    for month in 7..=10 {
        for day in [1, 8, 15, 22] {
            v.push(format!(
                "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
                 SUM(l_extendedprice) AS sum_base_price, \
                 SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
                 AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
                 COUNT(*) AS count_order \
                 FROM lineitem WHERE l_shipdate <= DATE '1998-{month:02}-{day:02}' \
                 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
            ));
        }
    }
    v
}

fn q3() -> Vec<String> {
    let mut v = Vec::new();
    for segment in SEGMENTS {
        for day in [5, 15, 25] {
            v.push(format!(
                "SELECT o_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate \
                 FROM customer JOIN orders ON c_custkey = o_custkey \
                 JOIN lineitem ON l_orderkey = o_orderkey \
                 WHERE c_mktsegment = '{segment}' AND o_orderdate < DATE '1995-03-{day:02}' \
                 AND l_shipdate > DATE '1995-03-{day:02}' \
                 GROUP BY o_orderkey, o_orderdate \
                 ORDER BY revenue DESC, o_orderdate, o_orderkey LIMIT 10"
            ));
        }
    }
    v
}

fn q5() -> Vec<String> {
    let mut v = Vec::new();
    for region in REGIONS {
        for year in 1993..=1995 {
            v.push(format!(
                "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
                 FROM customer JOIN orders ON c_custkey = o_custkey \
                 JOIN lineitem ON l_orderkey = o_orderkey \
                 JOIN nation ON c_nationkey = n_nationkey \
                 JOIN region ON n_regionkey = r_regionkey \
                 WHERE r_name = '{region}' AND o_orderdate >= DATE '{year}-01-01' \
                 AND o_orderdate < DATE '{next}-01-01' \
                 GROUP BY n_name ORDER BY revenue DESC, n_name",
                next = year + 1
            ));
        }
    }
    v
}

fn q6() -> Vec<String> {
    let mut v = Vec::new();
    for year in 1993..=1997 {
        for (lo, hi) in [("0.03", "0.05"), ("0.05", "0.07"), ("0.07", "0.09")] {
            v.push(format!(
                "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
                 WHERE l_shipdate >= DATE '{year}-01-01' AND l_shipdate < DATE '{next}-01-01' \
                 AND l_discount BETWEEN {lo} AND {hi} AND l_quantity < 24",
                next = year + 1
            ));
        }
    }
    v
}

fn q10() -> Vec<String> {
    let mut v = Vec::new();
    for (year, month) in [
        (1993, 1),
        (1993, 4),
        (1993, 7),
        (1993, 10),
        (1994, 1),
        (1994, 4),
        (1994, 7),
        (1994, 10),
    ] {
        let (end_year, end_month) = if month == 10 {
            (year + 1, 1)
        } else {
            (year, month + 3)
        };
        v.push(format!(
            "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM customer JOIN orders ON c_custkey = o_custkey \
             JOIN lineitem ON l_orderkey = o_orderkey \
             WHERE o_orderdate >= DATE '{year}-{month:02}-01' \
             AND o_orderdate < DATE '{end_year}-{end_month:02}-01' \
             AND l_returnflag = 'R' \
             GROUP BY c_custkey, c_name ORDER BY revenue DESC, c_custkey LIMIT 20"
        ));
    }
    v
}

fn traffic_by_country() -> Vec<String> {
    [100, 200, 300, 400, 500, 600, 700, 800]
        .iter()
        .map(|bytes| {
            format!(
                "SELECT country, COUNT(*) AS hits, SUM(bytes) AS total_bytes FROM requests \
                 WHERE bytes >= {bytes} GROUP BY country ORDER BY hits DESC, country"
            )
        })
        .collect()
}

fn customer_lookup() -> Vec<String> {
    (0..16)
        .map(|i| {
            format!(
                "SELECT c_name, c_mktsegment, c_acctbal FROM customer WHERE c_custkey = {}",
                42 + 97 * i
            )
        })
        .collect()
}

fn nation_counts() -> Vec<String> {
    (0..8)
        .map(|i| {
            format!(
                "SELECT n_name, COUNT(*) AS customers FROM customer \
                 JOIN nation ON c_nationkey = n_nationkey WHERE c_acctbal >= {} \
                 GROUP BY n_name ORDER BY customers DESC, n_name LIMIT 5",
                i * 500
            )
        })
        .collect()
}

fn top_customers() -> Vec<String> {
    SEGMENTS
        .iter()
        .map(|segment| {
            format!(
                "SELECT c_name, c_acctbal FROM customer WHERE c_mktsegment = '{segment}' \
                 ORDER BY c_acctbal DESC, c_name LIMIT 10"
            )
        })
        .collect()
}

fn slow_requests() -> Vec<String> {
    (0..8)
        .map(|i| {
            format!(
                "SELECT url, latency_ms FROM requests WHERE latency_ms > {} \
                 ORDER BY latency_ms DESC, url LIMIT 20",
                1000 + 100 * i
            )
        })
        .collect()
}

pub const TEMPLATES: [Template; 10] = [
    Template {
        id: "q1_pricing_summary",
        database: "tpch",
        heavy: true,
        variants: q1,
    },
    Template {
        id: "q3_shipping_priority",
        database: "tpch",
        heavy: true,
        variants: q3,
    },
    Template {
        id: "q5_local_supplier_volume",
        database: "tpch",
        heavy: true,
        variants: q5,
    },
    Template {
        id: "q6_forecast_revenue",
        database: "tpch",
        heavy: true,
        variants: q6,
    },
    Template {
        id: "q10_returned_items",
        database: "tpch",
        heavy: true,
        variants: q10,
    },
    Template {
        id: "traffic_by_country",
        database: "logs",
        heavy: true,
        variants: traffic_by_country,
    },
    Template {
        id: "customer_lookup",
        database: "tpch",
        heavy: false,
        variants: customer_lookup,
    },
    Template {
        id: "nation_counts",
        database: "tpch",
        heavy: false,
        variants: nation_counts,
    },
    Template {
        id: "top_customers",
        database: "tpch",
        heavy: false,
        variants: top_customers,
    },
    Template {
        id: "slow_requests",
        database: "logs",
        heavy: false,
        variants: slow_requests,
    },
];

/// Questions `lookup_light` sends to `POST /translate`; each translates to a
/// query with one result row, so its expected rows need no ordering.
pub const QUESTIONS: [&str; 6] = [
    "How many customers are there?",
    "How many orders were placed in 1995?",
    "How many parts have a size greater than 40?",
    "Count the suppliers",
    "What is the average account balance of customers?",
    "What is the maximum supply cost?",
];

/// Database the pooled questions are asked against.
pub const QUESTION_DATABASE: &str = "tpch";

/// A distinct SQL text a workload can send.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub template: &'static str,
    pub database: &'static str,
    pub heavy: bool,
    pub sql: String,
}

/// What one loop iteration of a client does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Submit `queries[i]`.
    Sql(usize),
    /// `POST /translate` `QUESTIONS[i]`, then submit the SQL it returns.
    Question(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    pub source: Source,
    pub level: Level,
}

/// The generated input of one run: the distinct queries and one item list per
/// client thread.
pub struct Streams {
    pub queries: Vec<Query>,
    pub clients: Vec<Vec<Item>>,
    /// Items per block: item `i` of a client belongs to block `i / block_len`.
    pub block_len: usize,
}

/// What one entry of a block asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// Index into [`TEMPLATES`].
    Template(usize),
    /// Index into [`QUESTIONS`].
    Question(usize),
}

/// Templates of one pass over a mix, with multiplicity.
fn templates_of(mix: Mix) -> Vec<usize> {
    let of = |id: &str| {
        TEMPLATES
            .iter()
            .position(|t| t.id == id)
            .expect("template id")
    };
    let heavy: Vec<usize> = (0..TEMPLATES.len())
        .filter(|&i| TEMPLATES[i].heavy)
        .collect();
    let light = |lookups: usize| {
        let mut pass = vec![of("customer_lookup"); lookups];
        pass.extend([
            of("nation_counts"),
            of("top_customers"),
            of("slow_requests"),
        ]);
        pass
    };
    match mix {
        Mix::Heavy => heavy,
        // Two in three are point lookups, so the median light query is one
        // by a wide margin.
        Mix::Light => light(6),
        // 1/3 heavy, 2/3 light (half of them lookups).
        Mix::Mixed => [heavy, light(3), light(3)].concat(),
    }
}

/// One block of a workload: every template pass × every level of the level
/// mix; with `translate`, nine template entries for each pooled question, so
/// one iteration in ten asks the translator first.
fn block(spec: &WorkloadSpec) -> Vec<(Entry, Level)> {
    let pass = templates_of(spec.mix);
    let mut entries: Vec<Entry> = pass.iter().map(|&t| Entry::Template(t)).collect();
    if spec.translate {
        entries = entries.repeat(QUESTIONS.len() * 9 / pass.len());
        entries.extend((0..QUESTIONS.len()).map(Entry::Question));
    }
    entries
        .iter()
        .flat_map(|&e| spec.levels.iter().map(move |&l| (e, l)))
        .collect()
}

/// The distinct queries of a mix, in template order then variant order.
pub fn distinct_queries(mix: Mix) -> Vec<Query> {
    let mut templates = templates_of(mix);
    templates.sort_unstable();
    templates.dedup();
    templates
        .into_iter()
        .flat_map(|t| {
            let template = &TEMPLATES[t];
            (template.variants)().into_iter().map(move |sql| Query {
                template: template.id,
                database: template.database,
                heavy: template.heavy,
                sql,
            })
        })
        .collect()
}

/// Generate `items_per_client` items for each of `clients` client threads.
pub fn generate(
    spec: &WorkloadSpec,
    seed: u64,
    clients: usize,
    items_per_client: usize,
) -> Streams {
    let queries = distinct_queries(spec.mix);
    let block = block(spec);
    let streams = (0..clients)
        .map(|client| {
            // One generator per client, so a client's stream does not depend
            // on how many items another client was given.
            let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
            let mut entries = Cycle::new(block.clone());
            let mut variants: Vec<Cycle<usize>> = TEMPLATES
                .iter()
                .map(|t| {
                    Cycle::new(
                        (0..queries.len())
                            .filter(|&q| queries[q].template == t.id)
                            .collect(),
                    )
                })
                .collect();
            (0..items_per_client)
                .map(|_| {
                    let (entry, level) = entries.draw(&mut rng);
                    let source = match entry {
                        Entry::Template(t) => Source::Sql(variants[t].draw(&mut rng)),
                        Entry::Question(q) => Source::Question(q),
                    };
                    Item { source, level }
                })
                .collect()
        })
        .collect();
    Streams {
        queries,
        clients: streams,
        block_len: block.len(),
    }
}

/// FNV-1a, the hash behind both fingerprints.
pub struct Fnv1a(pub u64);

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Hash of everything the program will be sent, in order.
pub fn fingerprint(streams: &Streams) -> u64 {
    let mut h = Fnv1a::new();
    for (client, items) in streams.clients.iter().enumerate() {
        h.eat(&[client as u8, 0xff]);
        for item in items {
            match item.source {
                Source::Sql(q) => h.eat(streams.queries[q].sql.as_bytes()),
                Source::Question(q) => h.eat(QUESTIONS[q].as_bytes()),
            }
            h.eat(&[0, item.level as u8]);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in &WORKLOADS {
            let a = generate(spec, 7, 2, 500);
            let b = generate(spec, 7, 2, 500);
            assert_eq!(a.clients, b.clients, "{}", spec.name);
            assert_eq!(fingerprint(&a), fingerprint(&b));
            let c = generate(spec, 8, 2, 500);
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", spec.name);
            // The two clients of one run get different streams.
            assert_ne!(a.clients[0], a.clients[1], "{}", spec.name);
        }
    }

    #[test]
    fn a_longer_stream_extends_a_shorter_one() {
        let spec = &WORKLOADS[0];
        let short = generate(spec, 3, 2, 100);
        let long = generate(spec, 3, 2, 300);
        assert_eq!(short.clients[1][..], long.clients[1][..100]);
    }

    #[test]
    fn pools_are_finite_and_distinct() {
        for t in &TEMPLATES {
            let mut v = (t.variants)();
            assert!(!v.is_empty() && v.len() <= 16, "{}: {}", t.id, v.len());
            let n = v.len();
            v.sort();
            v.dedup();
            assert_eq!(v.len(), n, "{} has duplicate variants", t.id);
        }
    }

    #[test]
    fn every_block_of_every_seed_holds_the_same_mix() {
        let spec = WORKLOADS
            .iter()
            .find(|w| w.name == "overload_mixed")
            .unwrap();
        for seed in [1, 2, 3] {
            let s = generate(spec, seed, 1, 3 * 180);
            assert_eq!(s.block_len, 180);
            for block in s.clients[0].chunks(s.block_len) {
                let heavy = |i: &&Item| matches!(i.source, Source::Sql(q) if s.queries[q].heavy);
                assert_eq!(block.iter().filter(heavy).count() * 3, s.block_len);
                for (level, tenths) in [
                    (Level::Immediate, 6),
                    (Level::Relaxed, 3),
                    (Level::BestEffort, 1),
                ] {
                    let at = block.iter().filter(|i| i.level == level);
                    assert_eq!(at.clone().count() * 10, s.block_len * tenths, "seed {seed}");
                    // Each level has its share of the heavy queries too.
                    assert_eq!(at.filter(heavy).count() * 10, 60 * tenths, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn lookup_light_asks_the_translator_one_time_in_ten() {
        let spec = WORKLOADS.iter().find(|w| w.name == "lookup_light").unwrap();
        let s = generate(spec, 5, 2, 600);
        assert_eq!(s.block_len, 60);
        for items in &s.clients {
            for block in items.chunks(s.block_len) {
                let asks = block
                    .iter()
                    .filter(|i| matches!(i.source, Source::Question(_)))
                    .count();
                assert_eq!(asks, QUESTIONS.len());
            }
        }
    }
}
