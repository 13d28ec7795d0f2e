//! Single-turn natural-language → SQL translation.
//!
//! This is the reproduction's stand-in for the CodeS language model: a
//! deterministic grammar/pattern semantic parser that implements the same
//! *system* behaviour the paper demonstrates — single round-trip
//! translation over a pruned schema, grounded in actual database values,
//! producing an executable SQL query the user can then edit. The supported
//! grammar covers counting, sums/averages/extrema, grouping ("per X"),
//! comparison and equality filters, year filters, value-grounded filters
//! ("from Germany"), top-k ranking, and automatic join-path inference over
//! declared foreign keys.

use crate::schema_pruning::{column_score, prune_schema, PruneConfig, PrunedSchema};
use crate::text::{is_stopword, stem, tokenize, word_affinity, Tok};
use crate::values::ValueIndex;
use pixels_catalog::TableDef;
use pixels_common::{value, DataType, Error, Result, Value};
use pixels_sql::ast::{
    BinaryOp, Expr, JoinType, ObjectName, OrderByItem, Select, SelectItem, TableExpr,
};
use std::collections::BTreeSet;

/// A successful translation.
#[derive(Debug, Clone)]
pub struct Translation {
    /// The generated SQL text (renders the `select` AST).
    pub sql: String,
    pub select: Select,
    /// Heuristic confidence in `[0, 1]`: fraction of content words the
    /// grammar could ground.
    pub confidence: f64,
    pub tables_used: Vec<String>,
}

/// Synonym table applied on top of lexical matching.
const SYNONYMS: &[(&str, &[&str])] = &[
    ("revenue", &["totalprice", "extendedprice"]),
    (
        "price",
        &["totalprice", "retailprice", "extendedprice", "supplycost"],
    ),
    ("cost", &["supplycost", "totalprice"]),
    ("balance", &["acctbal"]),
    ("segment", &["mktsegment"]),
    ("market", &["mktsegment"]),
    ("retail", &["retailprice"]),
    ("latency", &["latency"]),
    ("visitor", &["ip"]),
    ("page", &["url"]),
    ("hit", &["url"]),
    ("quantity", &["quantity"]),
    ("amount", &["totalprice", "bytes"]),
    ("priority", &["orderpriority", "shippriority"]),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Count,
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggKind {
    fn fn_name(self) -> &'static str {
        match self {
            AggKind::Count | AggKind::CountDistinct => "count",
            AggKind::Sum => "sum",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }
}

/// A resolved column reference.
#[derive(Debug, Clone, PartialEq)]
struct ColRef {
    table: String,
    column: String,
    data_type: DataType,
}

/// The translator for one database.
pub struct Translator {
    tables: Vec<TableDef>,
    values: ValueIndex,
    prune_cfg: PruneConfig,
}

impl Translator {
    pub fn new(tables: Vec<TableDef>, values: ValueIndex) -> Self {
        Translator {
            tables,
            values,
            prune_cfg: PruneConfig::default(),
        }
    }

    /// Translate one question into SQL (single turn).
    pub fn translate(&self, question: &str) -> Result<Translation> {
        let toks = tokenize(question);
        if toks.is_empty() {
            return Err(Error::Translate("empty question".into()));
        }
        let pruned = prune_schema(question, &self.tables, self.prune_cfg);
        let mut p = Parser {
            toks: &toks,
            pruned: &pruned,
            values: &self.values,
            tables: &self.tables,
            consumed: vec![false; toks.len()],
        };
        p.parse()
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    pruned: &'a PrunedSchema,
    values: &'a ValueIndex,
    tables: &'a [TableDef],
    consumed: Vec<bool>,
}

impl<'a> Parser<'a> {
    // -- column/table resolution ---------------------------------------------

    /// Score `word` against a column, synonyms included.
    fn word_col_score(&self, word: &str, column: &str) -> f64 {
        let mut best = column_score(column, std::slice::from_ref(&word.to_string()));
        for (syn, targets) in SYNONYMS {
            if word_affinity(word, syn) >= 0.7 {
                for t in *targets {
                    if column.to_lowercase().contains(*t) {
                        best = best.max(0.9);
                    }
                }
            }
        }
        // Verb-ish prefix match: "shipped" ~ "shipdate".
        let w = stem(word);
        let col_lower = column.to_lowercase();
        if w.len() >= 4 {
            let prefix: String = w.chars().take(4).collect();
            if col_lower.contains(&prefix) {
                best = best.max(0.5);
            }
        }
        best
    }

    /// Resolve the best column for the word at `i` (optionally fusing the
    /// next word, e.g. "account balance" → acctbal, or a table-name +
    /// column pair like "nation name" → n_name).
    fn resolve_column(&self, i: usize) -> Option<(ColRef, f64, usize)> {
        let mut best: Option<(ColRef, f64, usize)> = None;
        for span in [2usize, 1] {
            if i + span > self.toks.len() {
                continue;
            }
            let words: Vec<&str> = self.toks[i..i + span]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            if span > 1
                && words
                    .iter()
                    .any(|w| is_stopword(w) || w.parse::<f64>().is_ok())
            {
                continue;
            }
            for (t, cols) in &self.pruned.tables {
                let table_parts = crate::text::identifier_parts(&t.name);
                for &c in cols {
                    let f = t.schema.field(c);
                    let col_scores: Vec<f64> = words
                        .iter()
                        .map(|w| self.word_col_score(w, &f.name))
                        .collect();
                    let mut score = col_scores.iter().sum::<f64>() / span as f64
                        * (1.0 + 0.1 * (span - 1) as f64);
                    // "nation name": one word names the table, the other the
                    // column — a strong qualified reference.
                    if span == 2 {
                        for k in 0..2 {
                            let tbl = table_parts
                                .iter()
                                .map(|p| word_affinity(words[k], p))
                                .fold(0.0f64, f64::max);
                            if tbl >= 0.7 && col_scores[1 - k] >= 0.6 {
                                score = score.max(col_scores[1 - k] + 0.2);
                            }
                        }
                    }
                    if score > 0.45 && best.as_ref().is_none_or(|(_, s, _)| score > *s) {
                        best = Some((
                            ColRef {
                                table: t.name.clone(),
                                column: f.name.clone(),
                                data_type: f.data_type,
                            },
                            score,
                            span,
                        ));
                    }
                }
            }
        }
        best
    }

    /// Nearest resolvable column at or before position `i`, looking back up
    /// to `window` tokens, preferring the given type filter.
    fn nearest_column_before(
        &self,
        i: usize,
        window: usize,
        type_ok: impl Fn(DataType) -> bool,
    ) -> Option<ColRef> {
        let start = i.saturating_sub(window);
        for j in (start..=i.min(self.toks.len().saturating_sub(1))).rev() {
            if let Some((c, _, _)) = self.resolve_column(j) {
                if type_ok(c.data_type) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// The best date column in the pruned schema, preferring ones whose name
    /// matches nearby verbs ("shipped" → shipdate).
    fn best_date_column(&self) -> Option<ColRef> {
        let mut best: Option<(ColRef, f64)> = None;
        for (t, cols) in &self.pruned.tables {
            for &c in cols {
                let f = t.schema.field(c);
                if !matches!(f.data_type, DataType::Date | DataType::Timestamp) {
                    continue;
                }
                let mut score = 0.1;
                for tok in self.toks {
                    score += self.word_col_score(&tok.text, &f.name);
                }
                if best.as_ref().is_none_or(|(_, s)| score > *s) {
                    best = Some((
                        ColRef {
                            table: t.name.clone(),
                            column: f.name.clone(),
                            data_type: f.data_type,
                        },
                        score,
                    ));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    fn mark(&mut self, range: std::ops::Range<usize>) {
        for i in range {
            if i < self.consumed.len() {
                self.consumed[i] = true;
            }
        }
    }

    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    // -- main parse -----------------------------------------------------------

    fn parse(&mut self) -> Result<Translation> {
        let mut filters: Vec<Expr> = Vec::new();
        let mut filter_tables: Vec<String> = Vec::new();
        let mut agg: Option<(AggKind, Option<ColRef>)> = None;
        let mut group: Option<ColRef> = None;
        let mut order: Option<(OrderTarget, bool)> = None;
        let mut limit: Option<u64> = None;
        let mut projection_cols: Vec<ColRef> = Vec::new();
        let mut distinct_projection = false;
        // Group-count condition: "nations with more than 5 customers".
        let mut having: Option<(BinaryOp, i64, String)> = None;

        #[derive(Debug, Clone, PartialEq)]
        enum OrderTarget {
            Col(ColRef),
            AggOutput,
        }

        // Pass 1: value-grounded equality filters (quoted strings, known
        // values, multi-word value phrases like "united states").
        let n = self.toks.len();
        for span in [3usize, 2, 1] {
            for i in 0..n.saturating_sub(span - 1) {
                if (i..i + span).any(|j| self.consumed[j]) {
                    continue;
                }
                let phrase: String = self.toks[i..i + span]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                if span == 1 && (is_stopword(&phrase) || self.toks[i].number.is_some()) {
                    // Plain single stopwords/numbers are not values, but a
                    // quoted token is always a value mention.
                    if !self.toks[i].quoted {
                        continue;
                    }
                }
                let sites = self.values.lookup(&phrase);
                // Prefer a site in the pruned tables.
                let site = sites.iter().find(|s| {
                    self.pruned
                        .tables
                        .iter()
                        .any(|(t, _)| t.name.eq_ignore_ascii_case(&s.table))
                });
                let site = match site {
                    Some(s) => Some(s),
                    None if self.toks[i].quoted => sites.first(),
                    None => None,
                };
                if let Some(site) = site {
                    filters.push(Expr::eq(
                        Expr::col(site.column.clone()),
                        Expr::lit(Value::Utf8(site.stored.clone())),
                    ));
                    filter_tables.push(site.table.clone());
                    self.mark(i..i + span);
                    // Consume neighbouring words that name the value's
                    // column ("the 'BUILDING' segment" → segment).
                    for j in [i.wrapping_sub(1), i + span] {
                        if j < n
                            && !self.consumed[j]
                            && self.word_col_score(self.text(j), &site.column) >= 0.6
                        {
                            self.consumed[j] = true;
                        }
                    }
                } else if self.toks[i].quoted && span == 1 {
                    // Quoted but unknown value: attach to the nearest string
                    // column mention.
                    if let Some(c) =
                        self.nearest_column_before(i.saturating_sub(1), 4, |t| t == DataType::Utf8)
                    {
                        filters.push(Expr::eq(
                            Expr::col(c.column.clone()),
                            Expr::lit(Value::Utf8(self.toks[i].text.to_uppercase())),
                        ));
                        filter_tables.push(c.table);
                        self.mark(i..i + 1);
                    }
                }
            }
        }

        // Pass 1.5: group-count conditions ("X with more than N Y" where Y
        // names a table): becomes GROUP BY + HAVING COUNT(*) <op> N.
        {
            let mut i = 0;
            while i < n {
                if self.consumed[i] || self.toks[i].number.is_none() {
                    i += 1;
                    continue;
                }
                let (op, phrase_start) = self.comparison_before(i);
                let Some(op) = op else {
                    i += 1;
                    continue;
                };
                if (phrase_start..i).any(|j| self.consumed[j]) {
                    i += 1;
                    continue;
                }
                // The token right after the number must name a table.
                if let Some(counted) = self.table_named_at(i + 1) {
                    having = Some((op, self.toks[i].number.unwrap() as i64, counted));
                    self.mark(phrase_start..i + 2);
                }
                i += 1;
            }
        }

        // Pass 2: comparison and year filters.
        let mut i = 0;
        while i < n {
            if self.consumed[i] {
                i += 1;
                continue;
            }
            let t = &self.toks[i];
            if let Some(num) = t.number {
                // "in 1995" / "of 1995" with a year-looking number → date range.
                let is_year = (1900.0..2100.0).contains(&num) && num.fract() == 0.0;
                let prev = self.text(i.saturating_sub(1)).to_string();
                if is_year && matches!(prev.as_str(), "in" | "during" | "of" | "year") {
                    if let Some(col) = self.best_date_column() {
                        let y = num as i64;
                        let lo = value::parse_date(&format!("{y}-01-01")).unwrap();
                        let hi = value::parse_date(&format!("{y}-12-31")).unwrap();
                        filters.push(Expr::Between {
                            expr: Box::new(Expr::col(col.column.clone())),
                            low: Box::new(Expr::lit(Value::Date(lo))),
                            high: Box::new(Expr::lit(Value::Date(hi))),
                            negated: false,
                        });
                        filter_tables.push(col.table);
                        self.mark(i.saturating_sub(1)..i + 1);
                        i += 1;
                        continue;
                    }
                }
                // Comparison phrase ending just before the number.
                let (op, phrase_start) = self.comparison_before(i);
                if let Some(op) = op {
                    if let Some(col) =
                        self.nearest_column_before(phrase_start.saturating_sub(1), 5, |t| {
                            t.is_numeric()
                        })
                    {
                        filters.push(Expr::binary(
                            Expr::col(col.column.clone()),
                            op,
                            number_literal(num),
                        ));
                        filter_tables.push(col.table);
                        self.mark(phrase_start..i + 1);
                        i += 1;
                        continue;
                    }
                }
                // "status 500": column mention immediately before a number.
                if i > 0 && !self.consumed[i - 1] {
                    if let Some((col, score, _)) = self.resolve_column(i - 1) {
                        if score >= 0.7 && col.data_type.is_numeric() {
                            filters
                                .push(Expr::eq(Expr::col(col.column.clone()), number_literal(num)));
                            filter_tables.push(col.table);
                            self.mark(i - 1..i + 1);
                            i += 1;
                            continue;
                        }
                    }
                }
            }
            i += 1;
        }

        // Pass 3: top-k / ordering.
        let mut i = 0;
        while i < n {
            if self.consumed[i] {
                i += 1;
                continue;
            }
            match self.text(i) {
                "top" | "first" => {
                    if let Some(k) = self.toks.get(i + 1).and_then(|t| t.number) {
                        limit = Some(k as u64);
                        self.mark(i..i + 2);
                    }
                }
                "sorted" | "ordered" | "order" | "ranked" if self.text(i + 1) == "by" => {
                    if let Some((col, _, span)) = self.resolve_column(i + 2) {
                        let desc = matches!(
                            self.text(i + 2 + span),
                            "descending" | "desc" | "decreasing"
                        );
                        order = Some((OrderTarget::Col(col), !desc));
                        self.mark(i..i + 3 + span);
                    }
                }
                "highest" | "largest" | "biggest" | "most" | "greatest" | "slowest" => {
                    // "by the highest X" or "with the most X" → order desc.
                    if let Some((col, _, span)) = self.resolve_column(i + 1) {
                        order = Some((OrderTarget::Col(col), false));
                        self.mark(i..i + 1 + span);
                    } else if matches!(
                        self.text(i + 1),
                        "requests" | "hits" | "queries" | "rows" | "orders" | "entries"
                    ) {
                        order = Some((OrderTarget::AggOutput, false));
                        self.mark(i..i + 2);
                    }
                }
                "lowest" | "smallest" | "cheapest" | "fastest" | "fewest" => {
                    if let Some((col, _, span)) = self.resolve_column(i + 1) {
                        order = Some((OrderTarget::Col(col), true));
                        self.mark(i..i + 1 + span);
                    }
                }
                _ => {}
            }
            i += 1;
        }

        // Pass 4: aggregation intents.
        let mut i = 0;
        while i < n {
            if self.consumed[i] {
                i += 1;
                continue;
            }
            if agg.is_some() {
                // Single-turn grammar: the first aggregation intent wins.
                break;
            }
            match self.text(i) {
                "how" if self.text(i + 1) == "many" => {
                    // "how many distinct X" → COUNT(DISTINCT col).
                    if matches!(self.text(i + 2), "distinct" | "different" | "unique") {
                        if let Some((col, _, span)) = self.resolve_column(i + 3) {
                            agg = Some((AggKind::CountDistinct, Some(col)));
                            self.mark(i..i + 3 + span);
                            i += 1;
                            continue;
                        }
                    }
                    agg = Some((AggKind::Count, None));
                    self.mark(i..i + 2);
                }
                "count" => {
                    agg = Some((AggKind::Count, None));
                    self.mark(i..i + 1);
                }
                "number" if self.text(i + 1) == "of" => {
                    if matches!(self.text(i + 2), "distinct" | "different" | "unique") {
                        if let Some((col, _, span)) = self.resolve_column(i + 3) {
                            agg = Some((AggKind::CountDistinct, Some(col)));
                            self.mark(i..i + 3 + span);
                            i += 1;
                            continue;
                        }
                    }
                    agg = Some((AggKind::Count, None));
                    self.mark(i..i + 2);
                }
                kw @ ("total" | "sum" | "average" | "mean" | "avg" | "maximum" | "max"
                | "minimum" | "min") => {
                    let kind = match kw {
                        "total" | "sum" => AggKind::Sum,
                        "average" | "mean" | "avg" => AggKind::Avg,
                        "maximum" | "max" => AggKind::Max,
                        _ => AggKind::Min,
                    };
                    // Find the aggregated column within the next few tokens.
                    let mut found = None;
                    for j in i + 1..(i + 4).min(n) {
                        if self.consumed[j] || is_stopword(self.text(j)) {
                            continue;
                        }
                        if let Some((col, score, span)) = self.resolve_column(j) {
                            if score >= 0.45 && col.data_type.is_numeric() {
                                found = Some((col, j, span));
                                break;
                            }
                        }
                    }
                    if let Some((col, j, span)) = found {
                        agg = Some((kind, Some(col)));
                        self.mark(i..i + 1);
                        self.mark(j..j + span);
                    }
                }
                _ => {}
            }
            i += 1;
        }

        // Pass 5: grouping ("per X", "by X", "for each X", "grouped by X").
        let mut i = 0;
        while i < n {
            if self.consumed[i] {
                i += 1;
                continue;
            }
            let is_group_kw = match self.text(i) {
                "per" => true,
                "each" => true,
                "by" => agg.is_some(),
                "grouped" if self.text(i + 1) == "by" => {
                    self.mark(i..i + 1);
                    true
                }
                _ => false,
            };
            if is_group_kw {
                let start = if self.text(i) == "grouped" { i + 1 } else { i };
                let mut j = start + 1;
                while j < n && is_stopword(self.text(j)) && self.text(j) != "by" {
                    j += 1;
                }
                if let Some((col, score, span)) = self.resolve_column(j) {
                    if score >= 0.6 {
                        group = Some(col);
                        self.mark(i..j + span);
                    }
                }
            }
            i += 1;
        }

        // Pass 6: projection columns ("show the name and balance of ...").
        let mut i = 0;
        while i < n {
            if self.consumed[i] || is_stopword(self.text(i)) || self.toks[i].number.is_some() {
                i += 1;
                continue;
            }
            if matches!(self.text(i), "distinct" | "different" | "unique") {
                distinct_projection = true;
                self.mark(i..i + 1);
                i += 1;
                continue;
            }
            if let Some((col, score, span)) = self.resolve_column(i) {
                if score > 0.75 && !projection_cols.contains(&col) {
                    projection_cols.push(col);
                    self.mark(i..i + span);
                    i += span;
                    continue;
                }
            }
            i += 1;
        }

        // A grouping without an aggregate ("orders per status") implies a
        // count per group; GROUP BY alone would be invalid SQL.
        if group.is_some() && agg.is_none() {
            agg = Some((AggKind::Count, None));
        }

        // A group-count condition builds its own aggregate query. Known
        // grammar limit: ordering/top-k intents parsed earlier are not
        // carried into the HAVING form.
        //   SELECT <subject display col> FROM subject JOIN counted ...
        //   GROUP BY <display col> HAVING COUNT(*) <op> N
        // When the question also counts ("how many X have more than N Y"),
        // the grouped query is wrapped as a derived table and counted.
        if let Some((op, count, counted_table)) = &having {
            let count_outer = matches!(&agg, Some((AggKind::Count, None)));
            let subject = self
                .subject_table_excluding(counted_table)
                .ok_or_else(|| Error::Translate("no subject table for group count".into()))?;
            let display = self
                .display_column(&subject)
                .ok_or_else(|| Error::Translate(format!("no display column in {subject}")))?;
            let mut referenced = BTreeSet::new();
            referenced.insert(subject.clone());
            referenced.insert(counted_table.to_lowercase());
            let from = self.join_path(&subject, &referenced)?;
            let inner = Select {
                distinct: false,
                projection: vec![SelectItem::Expr {
                    expr: Expr::col(display.column.clone()),
                    alias: None,
                }],
                from: Some(from),
                selection: Expr::conjunction(filters),
                group_by: vec![Expr::col(display.column.clone())],
                having: Some(Expr::binary(
                    Expr::Function {
                        name: "count".into(),
                        args: vec![Expr::Wildcard],
                        distinct: false,
                    },
                    *op,
                    Expr::lit(Value::Int64(*count)),
                )),
                order_by: Vec::new(),
                limit: if count_outer { None } else { limit },
                offset: None,
            };
            let select = if count_outer {
                Select {
                    distinct: false,
                    projection: vec![SelectItem::Expr {
                        expr: Expr::Function {
                            name: "count".into(),
                            args: vec![Expr::Wildcard],
                            distinct: false,
                        },
                        alias: None,
                    }],
                    from: Some(TableExpr::Subquery {
                        query: Box::new(inner),
                        alias: "grouped".into(),
                    }),
                    selection: None,
                    group_by: Vec::new(),
                    having: None,
                    order_by: Vec::new(),
                    limit: None,
                    offset: None,
                }
            } else {
                inner
            };
            let tables_used = collect_tables(select.from.as_ref().unwrap());
            return Ok(Translation {
                sql: select.to_string(),
                confidence: 0.85,
                select,
                tables_used,
            });
        }

        // -- choose the primary table ------------------------------------------

        let mut referenced: BTreeSet<String> = BTreeSet::new();
        for t in &filter_tables {
            referenced.insert(t.to_lowercase());
        }
        if let Some((_, Some(c))) = &agg {
            referenced.insert(c.table.to_lowercase());
        }
        if let Some(g) = &group {
            referenced.insert(g.table.to_lowercase());
        }
        if let Some((OrderTarget::Col(c), _)) = &order {
            referenced.insert(c.table.to_lowercase());
        }
        for c in &projection_cols {
            referenced.insert(c.table.to_lowercase());
        }
        // The subject table: the highest-ranked pruned table mentioned by a
        // plural noun ("customers", "orders"), else the first referenced, else
        // the top pruned table.
        let subject = self
            .subject_table()
            .or_else(|| referenced.iter().next().cloned())
            .or_else(|| self.pruned.tables.first().map(|(t, _)| t.name.clone()))
            .ok_or_else(|| Error::Translate("no relevant table found".into()))?;
        referenced.insert(subject.clone());

        // -- join path ------------------------------------------------------------

        let join_order = self.join_path(&subject, &referenced)?;

        // -- assemble the SELECT ---------------------------------------------------

        let mut select_items: Vec<SelectItem> = Vec::new();
        let mut order_by: Vec<OrderByItem> = Vec::new();

        if let Some((kind, arg)) = &agg {
            if let Some(g) = &group {
                select_items.push(SelectItem::Expr {
                    expr: Expr::col(g.column.clone()),
                    alias: None,
                });
            }
            let agg_expr = Expr::Function {
                name: kind.fn_name().into(),
                args: match arg {
                    Some(c) => vec![Expr::col(c.column.clone())],
                    None => vec![Expr::Wildcard],
                },
                distinct: *kind == AggKind::CountDistinct,
            };
            select_items.push(SelectItem::Expr {
                expr: agg_expr,
                alias: None,
            });
            match &order {
                Some((OrderTarget::AggOutput, asc)) => {
                    order_by.push(OrderByItem {
                        expr: Expr::lit(Value::Int64(select_items.len() as i64)),
                        asc: *asc,
                    });
                }
                Some((OrderTarget::Col(c), asc)) => {
                    order_by.push(OrderByItem {
                        expr: Expr::col(c.column.clone()),
                        asc: *asc,
                    });
                }
                None if group.is_some() && limit.is_some() => {
                    // "top N groups" without explicit metric: order by the
                    // aggregate, descending.
                    order_by.push(OrderByItem {
                        expr: Expr::lit(Value::Int64(select_items.len() as i64)),
                        asc: false,
                    });
                }
                None => {}
            }
        } else {
            for c in &projection_cols {
                select_items.push(SelectItem::Expr {
                    expr: Expr::col(c.column.clone()),
                    alias: None,
                });
            }
            if select_items.is_empty() {
                select_items.push(SelectItem::Wildcard);
            }
            if let Some((target, asc)) = &order {
                let expr = match target {
                    OrderTarget::Col(c) => {
                        // Superlative ordering implies showing the metric.
                        if !projection_cols.iter().any(|p| p.column == c.column)
                            && !select_items
                                .iter()
                                .any(|s| matches!(s, SelectItem::Wildcard))
                        {
                            select_items.push(SelectItem::Expr {
                                expr: Expr::col(c.column.clone()),
                                alias: None,
                            });
                        }
                        Expr::col(c.column.clone())
                    }
                    OrderTarget::AggOutput => Expr::lit(Value::Int64(1)),
                };
                order_by.push(OrderByItem { expr, asc: *asc });
            }
        }

        let select = Select {
            distinct: distinct_projection && agg.is_none(),
            projection: select_items,
            from: Some(join_order),
            selection: Expr::conjunction(filters),
            group_by: group
                .as_ref()
                .map(|g| vec![Expr::col(g.column.clone())])
                .unwrap_or_default(),
            having: None,
            order_by,
            limit,
            offset: None,
        };

        // Tokens naming a used table count as grounded.
        let used_tables = collect_tables(select.from.as_ref().unwrap());
        for i in 0..n {
            if self.consumed[i] {
                continue;
            }
            for t in &used_tables {
                for p in crate::text::identifier_parts(t) {
                    if word_affinity(self.text(i), &p) >= 0.7 {
                        self.consumed[i] = true;
                    }
                }
            }
        }

        // Confidence: grounded content words / total content words.
        let content: Vec<usize> = (0..n).filter(|&i| !is_stopword(self.text(i))).collect();
        let grounded = content.iter().filter(|&&i| self.consumed[i]).count();
        let confidence = if content.is_empty() {
            0.0
        } else {
            grounded as f64 / content.len() as f64
        };

        let tables_used = collect_tables(select.from.as_ref().unwrap());
        Ok(Translation {
            sql: select.to_string(),
            select,
            confidence,
            tables_used,
        })
    }

    /// A comparison phrase ending at token `i` (the number's position).
    /// Returns the operator and the phrase's start index.
    fn comparison_before(&self, i: usize) -> (Option<BinaryOp>, usize) {
        let w1 = self.text(i.saturating_sub(1));
        let w2 = self.text(i.saturating_sub(2));
        match (w2, w1) {
            (_, "over" | "above" | "exceeding") => (Some(BinaryOp::Gt), i - 1),
            (_, "under" | "below") => (Some(BinaryOp::Lt), i - 1),
            ("more" | "greater" | "bigger" | "larger" | "higher" | "longer", "than") => {
                (Some(BinaryOp::Gt), i - 2)
            }
            ("less" | "fewer" | "smaller" | "lower" | "shorter", "than") => {
                (Some(BinaryOp::Lt), i - 2)
            }
            ("at", "least") => (Some(BinaryOp::GtEq), i - 2),
            ("at", "most") => (Some(BinaryOp::LtEq), i - 2),
            (_, "exactly" | "equals" | "equal") => (Some(BinaryOp::Eq), i - 1),
            _ => (None, i),
        }
    }

    /// The table whose name a plural/singular noun in the question matches
    /// best.
    fn subject_table(&self) -> Option<String> {
        let mut best: Option<(String, f64)> = None;
        for (t, _) in &self.pruned.tables {
            let parts = crate::text::identifier_parts(&t.name);
            for tok in self.toks {
                for p in &parts {
                    let s = word_affinity(&tok.text, p);
                    if s > 0.0 && best.as_ref().is_none_or(|(_, b)| s > *b) {
                        best = Some((t.name.clone(), s));
                    }
                }
            }
        }
        best.map(|(t, _)| t.to_lowercase())
    }

    /// Like `subject_table` but never the given table (the counted side of
    /// a group-count condition).
    fn subject_table_excluding(&self, excluded: &str) -> Option<String> {
        let mut best: Option<(String, f64)> = None;
        for (t, _) in &self.pruned.tables {
            if t.name.eq_ignore_ascii_case(excluded) {
                continue;
            }
            let parts = crate::text::identifier_parts(&t.name);
            for tok in self.toks {
                for p in &parts {
                    let s = word_affinity(&tok.text, p);
                    if s > 0.0 && best.as_ref().is_none_or(|(_, b)| s > *b) {
                        best = Some((t.name.clone(), s));
                    }
                }
            }
        }
        best.map(|(t, _)| t.to_lowercase())
    }

    /// The table whose name the token at `i` matches strongly, if any.
    fn table_named_at(&self, i: usize) -> Option<String> {
        let word = self.toks.get(i)?;
        for t in self.tables {
            for p in crate::text::identifier_parts(&t.name) {
                if word_affinity(&word.text, &p) >= 0.7 {
                    return Some(t.name.clone());
                }
            }
        }
        None
    }

    /// The display column of a table: a string column named like "name",
    /// else the primary key, else the first column.
    fn display_column(&self, table: &str) -> Option<ColRef> {
        let t = self
            .tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(table))?;
        let by_name =
            t.schema.fields().iter().position(|f| {
                f.data_type == DataType::Utf8 && f.name.to_lowercase().contains("name")
            });
        let idx = by_name
            .or_else(|| t.primary_key.as_ref().and_then(|pk| t.schema.index_of(pk)))
            .unwrap_or(0);
        let f = t.schema.field(idx);
        Some(ColRef {
            table: t.name.clone(),
            column: f.name.clone(),
            data_type: f.data_type,
        })
    }

    /// Build a FROM clause joining `referenced` tables via FK edges,
    /// starting at `subject` (BFS over the FK graph).
    fn join_path(&self, subject: &str, referenced: &BTreeSet<String>) -> Result<TableExpr> {
        // Build the undirected FK edge list over all tables of the database.
        let find = |name: &str| {
            self.tables
                .iter()
                .position(|t| t.name.eq_ignore_ascii_case(name))
        };
        let start =
            find(subject).ok_or_else(|| Error::Translate(format!("unknown table {subject}")))?;
        let mut need: BTreeSet<usize> = BTreeSet::new();
        for r in referenced {
            if let Some(i) = find(r) {
                need.insert(i);
            }
        }
        need.insert(start);

        // BFS from start over FK edges, recording parents.
        let n = self.tables.len();
        let mut edges: Vec<Vec<(usize, String, String)>> = vec![Vec::new(); n]; // (other, this_col, other_col)
        for (i, t) in self.tables.iter().enumerate() {
            for fk in &t.foreign_keys {
                if let Some(j) = find(&fk.ref_table) {
                    edges[i].push((j, fk.column.clone(), fk.ref_column.clone()));
                    edges[j].push((i, fk.ref_column.clone(), fk.column.clone()));
                }
            }
        }
        let mut parent: Vec<Option<(usize, String, String)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for (v, ucol, vcol) in &edges[u] {
                if !visited[*v] {
                    visited[*v] = true;
                    parent[*v] = Some((u, ucol.clone(), vcol.clone()));
                    queue.push_back(*v);
                }
            }
        }
        // Union of paths from each needed table back to start.
        let mut in_join: BTreeSet<usize> = BTreeSet::new();
        in_join.insert(start);
        for &target in &need {
            if !visited[target] {
                return Err(Error::Translate(format!(
                    "no join path from {} to {}",
                    self.tables[start].name, self.tables[target].name
                )));
            }
            let mut cur = target;
            while cur != start {
                in_join.insert(cur);
                cur = parent[cur].as_ref().unwrap().0;
            }
        }
        // Emit joins in BFS order so each table joins against one already
        // present.
        let mut expr = TableExpr::Table {
            name: ObjectName::bare(self.tables[start].name.clone()),
            alias: None,
        };
        let mut placed: BTreeSet<usize> = BTreeSet::new();
        placed.insert(start);
        while placed.len() < in_join.len() {
            let mut progressed = false;
            for &t in &in_join {
                if placed.contains(&t) {
                    continue;
                }
                let Some((p, pcol, tcol)) = &parent[t] else {
                    continue;
                };
                if !placed.contains(p) {
                    continue;
                }
                expr = TableExpr::Join {
                    left: Box::new(expr),
                    right: Box::new(TableExpr::Table {
                        name: ObjectName::bare(self.tables[t].name.clone()),
                        alias: None,
                    }),
                    join_type: JoinType::Inner,
                    on: Some(Expr::eq(Expr::col(pcol.clone()), Expr::col(tcol.clone()))),
                };
                placed.insert(t);
                progressed = true;
            }
            if !progressed {
                return Err(Error::Translate("could not order join path".into()));
            }
        }
        Ok(expr)
    }
}

fn number_literal(num: f64) -> Expr {
    if num.fract() == 0.0 && num.abs() < 9e15 {
        Expr::lit(Value::Int64(num as i64))
    } else {
        Expr::lit(Value::Float64(num))
    }
}

fn collect_tables(te: &TableExpr) -> Vec<String> {
    match te {
        TableExpr::Table { name, .. } => vec![name.table.clone()],
        TableExpr::Join { left, right, .. } => {
            let mut v = collect_tables(left);
            v.extend(collect_tables(right));
            v
        }
        TableExpr::Subquery { .. } => vec![],
    }
}
