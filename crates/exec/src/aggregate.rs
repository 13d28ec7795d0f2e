//! Hash grouping: GROUP BY with COUNT/SUM/AVG/MIN/MAX and their DISTINCT
//! variants, and plan-level DISTINCT, which is a GROUP BY of every column
//! with no aggregate.
//!
//! Every one of them goes through one driver, [`fold`]: the input's morsels
//! are folded into [`Partial`]s (hash tables of groups). A table scan's
//! morsels are folded by the worker that scanned them; any other input is
//! executed and its batches are split into contiguous runs, one morsel
//! each. At parallelism 1 one running partial takes every morsel in morsel
//! order; above it each morsel builds its own, and the partials merge in
//! morsel order. Because merging walks the input in order and each partial
//! records groups (and DISTINCT values) in first-appearance order, the
//! merged output preserves exactly the group ordering the serial path
//! produces. Integer aggregates are bit-identical to serial execution;
//! floating-point SUM/AVG may differ in the last ulps because partial sums
//! reassociate the additions. The aggregate exchange's stage 0 spills the
//! partial [`fold`] returns, so it combines rows exactly as the in-process
//! path does.
//!
//! State is columnar. Group keys are interned through the compact byte-row
//! encoding in [`crate::keys`] a whole column at a time, and each group's
//! key is kept as a row of key columns gathered at its first appearance.
//! The aggregates fold into [`Accumulators`]: one typed vector per
//! `(function, argument)` pair, indexed by group, updated by one loop per
//! batch that matches the argument's type and validity once. A SUM and an
//! AVG of one Float64 argument add the same values in the same order, so
//! they share one running sum, and a COUNT of that argument reads its count.
//! MIN, MAX and DISTINCT aggregates keep a row-at-a-time [`AggState`] cell
//! per group.

use crate::context::ExecContext;
use crate::encoded::{self, LazyRowGroup};
use crate::engine::execute;
use crate::evaluate::evaluate_ref;
use crate::keys::{KeyEncoder, KeyTable};
use crate::parallel;
use crate::scan::ScanMorsels;
use parking_lot::Mutex;
use pixels_common::{
    Column, ColumnBuilder, ColumnData, DataType, Error, Field, RecordBatch, Result, Schema,
    SchemaRef, Selection, Value,
};
use pixels_planner::{AggExpr, AggFunc, BoundExpr, Plan};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Running state of one aggregate within one group.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    SumInt { sum: i64, seen: bool },
    SumFloat { sum: f64, seen: bool },
    Avg { sum: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn new(agg: &AggExpr) -> AggState {
        match agg.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => {
                if agg.output_type == DataType::Float64 {
                    AggState::SumFloat {
                        sum: 0.0,
                        seen: false,
                    }
                } else {
                    AggState::SumInt {
                        sum: 0,
                        seen: false,
                    }
                }
            }
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold one non-null input value into the state.
    pub(crate) fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::SumInt { sum, seen } => {
                let x = v
                    .as_i64()
                    .ok_or_else(|| Error::Exec(format!("SUM over non-integer value {v}")))?;
                *sum = sum.checked_add(x).ok_or_else(sum_overflow)?;
                *seen = true;
            }
            AggState::SumFloat { sum, seen } => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| Error::Exec(format!("SUM over non-numeric value {v}")))?;
                *sum += x;
                *seen = true;
            }
            AggState::Avg { sum, count } => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| Error::Exec(format!("AVG over non-numeric value {v}")))?;
                *sum += x;
                *count += 1;
            }
            AggState::Min(cur) => {
                if cur.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                if cur.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// [`AggState::update`] for a string: MIN/MAX compare against the running
    /// extreme in place and build a `String` only when it is replaced.
    pub(crate) fn update_str(&mut self, s: &str) -> Result<()> {
        match self {
            AggState::Min(Some(Value::Utf8(m))) if s >= m.as_str() => Ok(()),
            AggState::Max(Some(Value::Utf8(m))) if s <= m.as_str() => Ok(()),
            _ => self.update(&Value::Utf8(s.to_owned())),
        }
    }

    /// Fold another partial state for the same group into this one.
    pub(crate) fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumInt { sum, seen }, AggState::SumInt { sum: s, seen: b }) => {
                if *b {
                    *sum = sum.checked_add(*s).ok_or_else(sum_overflow)?;
                    *seen = true;
                }
            }
            (AggState::SumFloat { sum, seen }, AggState::SumFloat { sum: s, seen: b }) => {
                if *b {
                    *sum += s;
                    *seen = true;
                }
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s, count: c }) => {
                *sum += s;
                *count += c;
            }
            (AggState::Min(cur), AggState::Min(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
                        *cur = Some(v.clone());
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(other)) => {
                if let Some(v) = other {
                    if cur.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
                        *cur = Some(v.clone());
                    }
                }
            }
            _ => return Err(mismatched()),
        }
        Ok(())
    }

    /// The primary spill-column type for this aggregate (the exchange spill
    /// format carries each state as two columns; see
    /// [`Accumulators::spill_columns`]).
    pub(crate) fn spill_type(agg: &AggExpr) -> DataType {
        match agg.func {
            AggFunc::Count => DataType::Int64,
            AggFunc::Sum => agg.output_type,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Min | AggFunc::Max => agg.output_type,
        }
    }

    /// Final value of the aggregate (SQL: SUM/AVG/MIN/MAX of no rows = NULL,
    /// COUNT of no rows = 0).
    pub(crate) fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int64(*c),
            AggState::SumInt { sum, seen } => {
                if *seen {
                    Value::Int64(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat { sum, seen } => {
                if *seen {
                    Value::Float64(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(*sum / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

fn sum_overflow() -> Error {
    Error::Exec("SUM overflow".into())
}

fn mismatched() -> Error {
    Error::Exec("mismatched aggregate states".into())
}

/// Values a DISTINCT aggregate has consumed, in first-appearance order. The
/// order matters when merging partials: replaying it keeps the update
/// sequence identical to serial execution.
#[derive(Debug, Default)]
pub(crate) struct DistinctSet {
    seen: HashSet<Value>,
    pub(crate) order: Vec<Value>,
}

impl DistinctSet {
    /// True (and records the value) if `v` has not been seen before.
    pub(crate) fn insert(&mut self, v: &Value) -> bool {
        if self.seen.insert(v.clone()) {
            self.order.push(v.clone());
            true
        } else {
            false
        }
    }
}

/// One accumulator's state for every group, indexed by group. How many rows
/// each group has is kept once, beside all of them
/// ([`Accumulators::rows`]): an accumulator only counts its argument's NULL
/// rows, and the values it took are the rows less those.
#[derive(Debug)]
pub(crate) enum State {
    /// COUNT of an argument.
    Nulls(Vec<i64>),
    /// SUM over Float64 and AVG over any numeric argument.
    Float { sums: Vec<f64>, nulls: Vec<i64> },
    /// SUM over Int32/Int64: `i64` sums that fail on overflow.
    Int { sums: Vec<i64>, nulls: Vec<i64> },
    /// MIN, MAX and every DISTINCT aggregate: a row-at-a-time cell per group
    /// (`init` is a fresh one), and for DISTINCT the values each group took.
    Cells {
        init: AggState,
        cells: Vec<AggState>,
        distinct: Option<Vec<DistinctSet>>,
    },
}

/// Call `add(group, x)` for every valid row, in row order, and count each
/// group's NULL rows into `nulls`.
#[inline]
fn for_valid<T: Copy>(
    gidx: &[u32],
    xs: &[T],
    validity: Option<&Selection>,
    nulls: &mut [i64],
    mut add: impl FnMut(usize, T),
) {
    match validity {
        None => {
            for (&g, &x) in gidx.iter().zip(xs) {
                add(g as usize, x);
            }
        }
        Some(valid) => {
            for (row, (&g, &x)) in gidx.iter().zip(xs).enumerate() {
                if valid.contains(row) {
                    add(g as usize, x);
                } else {
                    nulls[g as usize] += 1;
                }
            }
        }
    }
}

impl State {
    /// Fold one batch: `col` is the argument (`None` for a DISTINCT
    /// COUNT(*)) and `gidx[row]` the group of each row. Rows are visited in
    /// input order, so float sums add in exactly the row-at-a-time order. The
    /// column's type and validity are matched once, not once per row.
    pub(crate) fn update(&mut self, col: Option<&Column>, gidx: &[u32]) -> Result<()> {
        let validity = col.and_then(Column::validity);
        match (self, col.map(Column::data)) {
            (State::Nulls(nulls), _) => {
                if let Some(valid) = validity {
                    for (row, &g) in gidx.iter().enumerate() {
                        nulls[g as usize] += i64::from(!valid.contains(row));
                    }
                }
            }
            (State::Float { sums, nulls }, Some(data)) => match data {
                ColumnData::Float64(xs) => {
                    for_valid(gidx, xs, validity, nulls, |g, x| sums[g] += x)
                }
                ColumnData::Int64(xs) => {
                    for_valid(gidx, xs, validity, nulls, |g, x| sums[g] += x as f64)
                }
                ColumnData::Int32(xs) => {
                    for_valid(gidx, xs, validity, nulls, |g, x| sums[g] += f64::from(x))
                }
                other => return Err(not_numeric(other.data_type())),
            },
            (State::Int { sums, nulls }, Some(data)) => {
                // A wrapped sum is never read: any overflow fails the batch,
                // as the first failing checked add would have.
                let mut overflow = false;
                let mut add = |g: usize, x: i64| {
                    let (sum, o) = sums[g].overflowing_add(x);
                    sums[g] = sum;
                    overflow |= o;
                };
                match data {
                    ColumnData::Int64(xs) => for_valid(gidx, xs, validity, nulls, add),
                    ColumnData::Int32(xs) => {
                        for_valid(gidx, xs, validity, nulls, |g, x| add(g, x.into()))
                    }
                    other => return Err(not_numeric(other.data_type())),
                }
                if overflow {
                    return Err(sum_overflow());
                }
            }
            (
                State::Cells {
                    cells,
                    distinct: None,
                    ..
                },
                Some(ColumnData::Utf8(strings)),
            ) => {
                // MIN/MAX over strings: no `Value` per row.
                for (row, &g) in gidx.iter().enumerate() {
                    if validity.is_none_or(|v| v.contains(row)) {
                        cells[g as usize].update_str(strings.get(row))?;
                    }
                }
            }
            (
                State::Cells {
                    cells, distinct, ..
                },
                _,
            ) => {
                for (row, &g) in gidx.iter().enumerate() {
                    let value = col.map_or(Value::Int64(1), |c| c.value(row));
                    if value.is_null() {
                        continue; // aggregates skip NULLs
                    }
                    if let Some(sets) = distinct {
                        if !sets[g as usize].insert(&value) {
                            continue;
                        }
                    }
                    cells[g as usize].update(&value)?;
                }
            }
            (State::Float { .. } | State::Int { .. }, None) => {
                return Err(Error::Exec("SUM/AVG without an argument".into()))
            }
        }
        Ok(())
    }

    /// Each group's NULL rows, for a state that counts them.
    fn nulls(&self) -> Option<&[i64]> {
        match self {
            State::Nulls(nulls) | State::Float { nulls, .. } | State::Int { nulls, .. } => {
                Some(nulls)
            }
            State::Cells { .. } => None,
        }
    }

    fn resize(&mut self, groups: usize) {
        match self {
            State::Nulls(nulls) => nulls.resize(groups, 0),
            State::Float { sums, nulls } => {
                sums.resize(groups, 0.0);
                nulls.resize(groups, 0);
            }
            State::Int { sums, nulls } => {
                sums.resize(groups, 0);
                nulls.resize(groups, 0);
            }
            State::Cells {
                init,
                cells,
                distinct,
            } => {
                cells.resize(groups, init.clone());
                if let Some(sets) = distinct {
                    sets.resize_with(groups, DistinctSet::default);
                }
            }
        }
    }

    /// Fold group `src` of `other` into group `targets[src]`, for every
    /// group of `other`. A new group is a fresh state here, so merging into
    /// it copies: sums start at `+0.0` and never become `-0.0`, so `0.0 + s`
    /// is `s` to the bit, and adding an empty partial's `+0.0` changes
    /// nothing.
    fn merge(&mut self, other: &State, targets: &[usize]) -> Result<()> {
        fn add_nulls(a: &mut [i64], b: &[i64], targets: &[usize]) {
            for (&t, &n) in targets.iter().zip(b) {
                a[t] += n;
            }
        }
        match (self, other) {
            (State::Nulls(a), State::Nulls(b)) => add_nulls(a, b, targets),
            (State::Float { sums, nulls }, State::Float { sums: s, nulls: n }) => {
                for (&t, &x) in targets.iter().zip(s) {
                    sums[t] += x;
                }
                add_nulls(nulls, n, targets);
            }
            (State::Int { sums, nulls }, State::Int { sums: s, nulls: n }) => {
                for (&t, &x) in targets.iter().zip(s) {
                    sums[t] = sums[t].checked_add(x).ok_or_else(sum_overflow)?;
                }
                add_nulls(nulls, n, targets);
            }
            (
                State::Cells {
                    cells: a,
                    distinct: da,
                    ..
                },
                State::Cells {
                    cells: b,
                    distinct: db,
                    ..
                },
            ) => {
                for (src, &t) in targets.iter().enumerate() {
                    match (da.as_mut(), db.as_ref()) {
                        // Replay the chunk's distinct values in order; only
                        // globally-new values update the state.
                        (Some(da), Some(db)) => {
                            for v in &db[src].order {
                                if da[t].insert(v) {
                                    a[t].update(v)?;
                                }
                            }
                        }
                        _ => a[t].merge(&b[src])?,
                    }
                }
            }
            _ => return Err(mismatched()),
        }
        Ok(())
    }
}

fn not_numeric(ty: DataType) -> Error {
    Error::Exec(format!("SUM/AVG over a non-numeric {ty} column"))
}

/// One accumulator: a `(function, argument)` pair and its state.
#[derive(Debug)]
struct Acc {
    /// Index into [`Accumulators::args`]; `None` only for a DISTINCT
    /// COUNT(*).
    arg: Option<usize>,
    state: State,
}

/// Where one aggregate's value is read from: [`Accumulators::rows`], or
/// an index into [`Accumulators::accs`].
#[derive(Debug, Clone, Copy)]
enum Output {
    /// COUNT(*): the group's rows.
    Rows,
    /// The values an accumulator took (of a COUNT, or of a sum).
    Count(usize),
    /// The running sum; NULL when it took no value.
    Sum(usize),
    /// Sum over count; NULL when it took no value.
    Avg(usize),
    /// The cell's own final value.
    Cell(usize),
}

/// The running state of every aggregate of one hash aggregate, for every
/// group: the group's rows, and one [`State`] per distinct `(function,
/// argument)` pair.
#[derive(Debug)]
pub(crate) struct Accumulators {
    /// The distinct argument expressions, each evaluated once per batch.
    args: Vec<BoundExpr>,
    accs: Vec<Acc>,
    /// One per aggregate, in the aggregate list's order.
    outputs: Vec<Output>,
    /// Rows per group; its length is the number of groups.
    rows: Vec<i64>,
}

impl Accumulators {
    /// Accumulators for `aggs`, with no group yet. A SUM and an AVG over one
    /// Float64 argument share a running sum; a COUNT of an argument reads the
    /// count of a sum over it. An integer SUM and an AVG keep separate
    /// states (a checked `i64` and an `f64`), and MIN, MAX and DISTINCT
    /// aggregates share nothing.
    pub(crate) fn new(aggs: &[AggExpr]) -> Accumulators {
        let mut args: Vec<BoundExpr> = Vec::new();
        let mut accs: Vec<Acc> = Vec::new();
        let mut outputs = vec![Output::Rows; aggs.len()];
        // Sums first, so that a COUNT finds them wherever it is listed.
        for counts in [false, true] {
            for (ai, agg) in aggs.iter().enumerate() {
                let cell = agg.distinct || matches!(agg.func, AggFunc::Min | AggFunc::Max);
                if (cell || agg.func == AggFunc::Count) != counts {
                    continue;
                }
                let arg = agg
                    .arg
                    .as_ref()
                    .map(|e| match args.iter().position(|a| a == e) {
                        Some(i) => i,
                        None => {
                            args.push(e.clone());
                            args.len() - 1
                        }
                    });
                if !cell && arg.is_none() {
                    continue; // COUNT(*)
                }
                let state = if cell {
                    State::Cells {
                        init: AggState::new(agg),
                        cells: Vec::new(),
                        distinct: agg.distinct.then(Vec::new),
                    }
                } else if agg.func == AggFunc::Count {
                    State::Nulls(Vec::new())
                } else if agg.func == AggFunc::Sum && agg.output_type != DataType::Float64 {
                    State::Int {
                        sums: Vec::new(),
                        nulls: Vec::new(),
                    }
                } else {
                    State::Float {
                        sums: Vec::new(),
                        nulls: Vec::new(),
                    }
                };
                let shares = |acc: &Acc| {
                    acc.arg == arg
                        && matches!(
                            (&acc.state, &state),
                            (State::Float { .. }, State::Float { .. })
                                | (State::Int { .. }, State::Int { .. })
                                | (
                                    State::Nulls(_) | State::Float { .. } | State::Int { .. },
                                    State::Nulls(_)
                                )
                        )
                };
                let at = match accs.iter().position(|acc| !cell && shares(acc)) {
                    Some(at) => at,
                    None => {
                        accs.push(Acc { arg, state });
                        accs.len() - 1
                    }
                };
                outputs[ai] = match agg.func {
                    _ if cell => Output::Cell(at),
                    AggFunc::Count => Output::Count(at),
                    AggFunc::Avg => Output::Avg(at),
                    _ => Output::Sum(at),
                };
            }
        }
        Accumulators {
            args,
            accs,
            outputs,
            rows: Vec::new(),
        }
    }

    /// The argument expressions, in the order [`Accumulators::update`] takes
    /// their columns.
    pub(crate) fn args(&self) -> &[BoundExpr] {
        &self.args
    }

    /// Each accumulator's argument (an index into [`Accumulators::args`])
    /// and state.
    pub(crate) fn states_mut(&mut self) -> impl Iterator<Item = (Option<usize>, &mut State)> {
        self.accs.iter_mut().map(|acc| (acc.arg, &mut acc.state))
    }

    pub(crate) fn groups(&self) -> usize {
        self.rows.len()
    }

    /// Grow to `groups` groups, the new ones fresh.
    pub(crate) fn resize(&mut self, groups: usize) {
        self.rows.resize(groups, 0);
        for acc in &mut self.accs {
            acc.state.resize(groups);
        }
    }

    /// Count `n` more rows into group `group`, for a caller that folds the
    /// states itself.
    pub(crate) fn add_rows(&mut self, group: usize, n: usize) {
        self.rows[group] += n as i64;
    }

    /// Fold one batch: `cols[i]` is argument `i` over the batch, `gidx[row]`
    /// each row's group (below [`Accumulators::groups`]).
    ///
    /// Float64 sums over columns without NULLs — all of q1's — add up to
    /// four accumulators per pass ([`add_lanes`]): an add waits for the last
    /// add to the same group's slot, and with few groups that wait is the
    /// cost, but adds to different accumulators do not wait for each other.
    /// Each accumulator still adds its values in row order.
    pub(crate) fn update<C: std::borrow::Borrow<Column>>(
        &mut self,
        cols: &[C],
        gidx: &[u32],
    ) -> Result<()> {
        let mut lanes: Vec<(&mut [f64], &[f64])> = Vec::new();
        for acc in &mut self.accs {
            let col = acc.arg.map(|a| cols[a].borrow());
            let plain = col.filter(|c| c.validity().is_none()).map(Column::data);
            match (&mut acc.state, plain) {
                (State::Float { sums, .. }, Some(ColumnData::Float64(xs))) => {
                    lanes.push((sums, xs));
                }
                (state, _) => state.update(col, gidx)?,
            }
        }
        for &g in gidx {
            self.rows[g as usize] += 1;
        }
        let mut fours = lanes.chunks_exact_mut(4);
        for four in &mut fours {
            add_lanes::<4>(gidx, four.try_into().expect("four lanes"));
        }
        let rest = fours.into_remainder();
        match rest.len() {
            1 => add_lanes::<1>(gidx, rest.try_into().expect("one lane")),
            2 => add_lanes::<2>(gidx, rest.try_into().expect("two lanes")),
            3 => add_lanes::<3>(gidx, rest.try_into().expect("three lanes")),
            _ => {}
        }
        Ok(())
    }

    /// Fold group `src` of `other` (over the same aggregates) into group
    /// `targets[src]` of this one.
    pub(crate) fn merge(&mut self, other: &Accumulators, targets: &[usize]) -> Result<()> {
        for (&t, &n) in targets.iter().zip(&other.rows) {
            self.rows[t] += n;
        }
        for (acc, from) in self.accs.iter_mut().zip(&other.accs) {
            acc.state.merge(&from.state, targets)?;
        }
        Ok(())
    }

    /// The aggregates' output columns, one row per group; `fields` are the
    /// aggregates' output fields.
    pub(crate) fn finish(&self, fields: &[Field]) -> Result<Vec<Column>> {
        (self.outputs.iter().zip(fields))
            .map(|(&out, f)| self.output_column(out, f.data_type))
            .collect()
    }

    /// Each aggregate's state as the exchange spill's `(primary, secondary)`
    /// column pair, one row per group: `types` are the pairs' column types.
    /// AVG spills `(sum, count)`, so the division happens exactly once, in
    /// the final stage; every other aggregate spills its final value and a
    /// NULL.
    pub(crate) fn spill_columns(&self, types: &[DataType]) -> Result<Vec<Column>> {
        let mut out = Vec::with_capacity(2 * self.outputs.len());
        for (&output, &ty) in self.outputs.iter().zip(types.iter().step_by(2)) {
            match self.sums_and_counts(output) {
                Some(pairs) => {
                    out.push(Column::new(ColumnData::Float64(
                        pairs.iter().map(|p| p.0).collect(),
                    )));
                    out.push(Column::new(ColumnData::Int64(
                        pairs.iter().map(|p| p.1).collect(),
                    )));
                }
                None => {
                    out.push(self.output_column(output, ty)?);
                    out.push(Column::nulls(DataType::Int64, self.groups()));
                }
            }
        }
        Ok(out)
    }

    /// The values accumulator `at` took, per group.
    fn counts(&self, at: usize) -> Result<Vec<i64>> {
        let nulls = self.accs[at].state.nulls().ok_or_else(mismatched)?;
        Ok(self.rows.iter().zip(nulls).map(|(r, n)| r - n).collect())
    }

    /// One aggregate's final values, as a column of type `ty`.
    fn output_column(&self, out: Output, ty: DataType) -> Result<Column> {
        Ok(match out {
            Output::Rows => Column::new(ColumnData::Int64(self.rows.clone())),
            Output::Count(at) => Column::new(ColumnData::Int64(self.counts(at)?)),
            Output::Sum(at) => {
                let counts = self.counts(at)?;
                fn seen<T>((x, &n): (T, &i64)) -> Option<T> {
                    (n > 0).then_some(x)
                }
                match &self.accs[at].state {
                    State::Float { sums, .. } => nullable(
                        sums.iter().copied().zip(&counts).map(seen),
                        ColumnData::Float64,
                    )?,
                    State::Int { sums, .. } => nullable(
                        sums.iter().copied().zip(&counts).map(seen),
                        ColumnData::Int64,
                    )?,
                    _ => return Err(mismatched()),
                }
            }
            Output::Avg(at) => average(self.float_pairs(at)?.into_iter())?,
            Output::Cell(at) => {
                let State::Cells { cells, .. } = &self.accs[at].state else {
                    return Err(mismatched());
                };
                let mut b = ColumnBuilder::with_capacity(ty, cells.len());
                for cell in cells {
                    b.push(&cell.finish())?;
                }
                b.finish()
            }
        })
    }

    /// A Float accumulator's `(sum, count)` per group.
    fn float_pairs(&self, at: usize) -> Result<Vec<(f64, i64)>> {
        let State::Float { sums, .. } = &self.accs[at].state else {
            return Err(mismatched());
        };
        Ok(sums.iter().copied().zip(self.counts(at)?).collect())
    }

    /// An AVG's `(sum, count)` per group, DISTINCT or not; `None` for any
    /// other aggregate.
    fn sums_and_counts(&self, out: Output) -> Option<Vec<(f64, i64)>> {
        match out {
            Output::Avg(at) => self.float_pairs(at).ok(),
            Output::Cell(at) => match &self.accs[at].state {
                State::Cells {
                    init: AggState::Avg { .. },
                    cells,
                    ..
                } => cells
                    .iter()
                    .map(|c| match c {
                        AggState::Avg { sum, count } => Some((*sum, *count)),
                        _ => None,
                    })
                    .collect(),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Add `xs[row]` into `sums[gidx[row]]` for every row, for `N` accumulators
/// in one pass.
fn add_lanes<const N: usize>(gidx: &[u32], lanes: &mut [(&mut [f64], &[f64]); N]) {
    for (row, &g) in gidx.iter().enumerate() {
        for (sums, xs) in lanes.iter_mut() {
            sums[g as usize] += xs[row];
        }
    }
}

/// A column of `rows`, NULL where a row is `None`. A NULL row's payload is
/// the builder's placeholder (zero), so the column equals one built a value
/// at a time.
fn nullable<T: Default>(
    rows: impl ExactSizeIterator<Item = Option<T>>,
    data: fn(Vec<T>) -> ColumnData,
) -> Result<Column> {
    let mut values = Vec::with_capacity(rows.len());
    let mut valid = Selection::default();
    for row in rows {
        valid.push(row.is_some());
        values.push(row.unwrap_or_default());
    }
    Column::with_validity(data(values), Some(valid))
}

/// AVG's final values from `(sum, count)` pairs: NULL over no values.
fn average(pairs: impl ExactSizeIterator<Item = (f64, i64)>) -> Result<Column> {
    nullable(
        pairs.map(|(sum, count)| (count > 0).then(|| sum / count as f64)),
        ColumnData::Float64,
    )
}

/// Each group's key: a row of key columns, gathered at the group's first
/// appearance in pieces (one per batch that brought new groups) and
/// concatenated when read.
pub(crate) struct GroupKeys {
    types: Vec<DataType>,
    pieces: Vec<Vec<Column>>,
}

impl GroupKeys {
    fn new(types: &[DataType]) -> GroupKeys {
        GroupKeys {
            types: types.to_vec(),
            pieces: Vec::new(),
        }
    }

    /// Append rows `rows` of key columns `cols` as the next groups.
    fn push<C: std::borrow::Borrow<Column>>(&mut self, cols: &[C], rows: &[usize]) -> Result<()> {
        if !rows.is_empty() {
            let piece = cols.iter().map(|c| c.borrow().gather(rows));
            self.pieces.push(piece.collect::<Result<_>>()?);
        }
        Ok(())
    }

    /// The key columns, one row per group. Concatenation copies a string
    /// pool larger than the result, so the keys never pin a batch's pool.
    pub(crate) fn columns(&self) -> Result<Vec<Column>> {
        (self.types.iter().enumerate())
            .map(|(c, &ty)| match self.pieces.as_slice() {
                [] => Ok(Column::new(ColumnData::with_capacity(ty, 0))),
                pieces => Column::concat(&pieces.iter().map(|p| &p[c]).collect::<Vec<_>>()),
            })
            .collect()
    }
}

/// A partial aggregate — one worker's, one morsel's or a scan's running
/// one: interned group keys (dense, in first-appearance order), each
/// group's key columns, and the accumulators.
pub(crate) struct Partial {
    pub(crate) table: KeyTable,
    pub(crate) keys: GroupKeys,
    pub(crate) accs: Accumulators,
    encoder: KeyEncoder,
    /// Scratch of the last fold: each row's group, and the rows that
    /// brought new groups.
    gidx: Vec<u32>,
    first_rows: Vec<usize>,
}

impl Partial {
    pub(crate) fn new(key_types: &[DataType], aggs: &[AggExpr]) -> Partial {
        Partial {
            table: KeyTable::new(),
            keys: GroupKeys::new(key_types),
            accs: Accumulators::new(aggs),
            encoder: KeyEncoder::new(key_types),
            gidx: Vec::new(),
            first_rows: Vec::new(),
        }
    }

    /// Number rows `0..rows` of key columns `group_cols` into `gidx`. A key
    /// seen for the first time becomes the next group: its key row is kept
    /// and its states start fresh.
    fn intern<C: std::borrow::Borrow<Column>>(
        &mut self,
        group_cols: &[C],
        rows: usize,
    ) -> Result<()> {
        self.gidx.clear();
        let before = self.table.len();
        // Group keys treat NULLs as equal (unlike join keys).
        (self.table).intern_rows(&self.encoder, group_cols, 0..rows, &mut self.gidx);
        if self.table.len() > before {
            // Entries are dense: the next unseen index is a new group.
            self.first_rows.clear();
            let mut next = before as u32;
            for (row, &gi) in self.gidx.iter().enumerate() {
                if gi == next {
                    self.first_rows.push(row);
                    next += 1;
                }
            }
            self.keys.push(group_cols, &self.first_rows)?;
            self.accs.resize(self.table.len());
        }
        Ok(())
    }

    /// Fold one batch: intern its group keys into per-row group indices,
    /// then run one typed update loop per accumulator.
    pub(crate) fn fold(&mut self, batch: &RecordBatch, group_exprs: &[BoundExpr]) -> Result<()> {
        let group_cols: Vec<Cow<Column>> = group_exprs
            .iter()
            .map(|g| evaluate_ref(g, batch))
            .collect::<Result<_>>()?;
        let arg_cols: Vec<Cow<Column>> = (self.accs.args().iter())
            .map(|arg| evaluate_ref(arg, batch))
            .collect::<Result<_>>()?;
        self.intern(&group_cols, batch.num_rows())?;
        self.accs.update(&arg_cols, &self.gidx)
    }

    /// Fold one unfiltered morsel of a grand total straight off its chunks
    /// ([`encoded::fold`]): `columns[a]` is the chunk of argument `a`.
    fn fold_chunks(&mut self, lazy: &LazyRowGroup, columns: &[usize]) -> Result<()> {
        let rows = lazy.num_rows();
        // Every row is in the one group.
        self.intern(&[] as &[Column], rows)?;
        self.accs.add_rows(0, rows);
        for (arg, state) in self.accs.states_mut() {
            encoded::fold(state, arg.map(|a| columns[a]), lazy, &self.gidx)?;
        }
        Ok(())
    }
}

fn key_types(group_exprs: &[BoundExpr]) -> Vec<DataType> {
    group_exprs.iter().map(|g| g.data_type()).collect()
}

/// Fold `part` into `acc`. Called with partials in morsel order, so groups
/// (and DISTINCT values) keep their global first-appearance order. Keys are
/// re-interned from the source partial's encoded bytes — never re-encoded.
pub(crate) fn merge_partial(acc: &mut Partial, part: Partial) -> Result<()> {
    let before = acc.table.len();
    let mut targets = Vec::with_capacity(part.table.len());
    let mut fresh = Vec::new();
    for src in 0..part.table.len() {
        let (gi, is_new) = acc.table.intern(part.table.key_bytes(src));
        if is_new {
            fresh.push(src);
        }
        targets.push(gi);
    }
    if acc.table.len() > before {
        acc.keys.push(&part.keys.columns()?, &fresh)?;
        acc.accs.resize(acc.table.len());
    }
    acc.accs.merge(&part.accs, &targets)
}

/// Execute a hash aggregate over materialized input with up to `parallelism`
/// workers folding it.
pub fn execute_aggregate(
    input: &[RecordBatch],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    output_schema: &SchemaRef,
    parallelism: usize,
) -> Result<Vec<RecordBatch>> {
    let grouping = Grouping::new(group_exprs, aggs, parallelism);
    grouping.batches(input)?;
    finish_partial(grouping.finish()?, output_schema)
}

/// DISTINCT over materialized input: a GROUP BY of every column with no
/// aggregate, so rows come out in first-appearance order, in one batch.
pub fn execute_distinct(input: &[RecordBatch]) -> Result<Vec<RecordBatch>> {
    let Some(first) = input.first() else {
        return Ok(Vec::new());
    };
    let schema = first.schema();
    execute_aggregate(input, &distinct_keys(schema), &[], schema, 1)
}

/// The group keys of a DISTINCT over rows of `schema`: every column.
pub(crate) fn distinct_keys(schema: &Schema) -> Vec<BoundExpr> {
    (schema.fields().iter().enumerate())
        .map(|(i, f)| BoundExpr::column(i, f.data_type, f.name.clone()))
        .collect()
}

/// Fold every row of `input` into one [`Partial`]: `aggs` grouped by
/// `group_exprs`. Every hash aggregate, every DISTINCT and the aggregate
/// exchange's stage 0 group through here, so at equal parallelism a partial
/// spilled by stage 0 is the very partial the single-stage path finishes.
///
/// A table scan feeds its morsels as they are scanned ([`Grouping::scan`]),
/// so no more of the table is decoded at once than the morsels in flight.
/// Any other input is executed, and its batches feed the same fold in at
/// most `ctx.parallelism` contiguous runs of about equal rows
/// ([`Grouping::batches`]).
pub(crate) fn fold(
    input: &Plan,
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    ctx: &ExecContext,
) -> Result<Partial> {
    let grouping = Grouping::new(group_exprs, aggs, ctx.parallelism);
    match input {
        Plan::Scan {
            paths,
            projection,
            filters,
            ..
        } => grouping.scan(ctx, paths, projection, filters)?,
        other => grouping.batches(&execute(other, ctx)?)?,
    }
    grouping.finish()
}

/// The running fold of [`fold`]: morsels in, one merged [`Partial`] out.
///
/// At parallelism 1 every morsel folds into one running partial in morsel
/// order. Above it, each morsel folds into a partial of its own and the
/// partials merge in morsel order, whichever worker took which morsel, so
/// groups keep their first appearance. A failed fold stops the folding of
/// later morsels, and the first error in morsel order is the one returned.
struct Grouping<'a> {
    group_exprs: &'a [BoundExpr],
    aggs: &'a [AggExpr],
    parallelism: usize,
    /// The lowest morsel whose fold failed: no later morsel folds.
    failed: AtomicUsize,
    merged: Mutex<Merged>,
}

struct Merged {
    acc: Partial,
    /// The next morsel to merge, and the finished partials of later ones
    /// (`None`: a morsel without rows).
    next: usize,
    ahead: BTreeMap<usize, Result<Option<Partial>>>,
    /// The first fold error in morsel order.
    error: Option<Error>,
}

impl<'a> Grouping<'a> {
    fn new(group_exprs: &'a [BoundExpr], aggs: &'a [AggExpr], parallelism: usize) -> Self {
        Grouping {
            group_exprs,
            aggs,
            parallelism,
            failed: AtomicUsize::new(usize::MAX),
            merged: Mutex::new(Merged {
                acc: Partial::new(&key_types(group_exprs), aggs),
                next: 0,
                ahead: BTreeMap::new(),
                error: None,
            }),
        }
    }

    /// Feed a table scan's morsels: each is folded by the worker that just
    /// scanned it, while its rows are still in cache. At parallelism 1 these
    /// are the very folds [`Grouping::batches`] makes over the scan's
    /// batches, so every float is the same to the bit. Under a grand total
    /// of bare columns, a scan with no filter folds each morsel straight off
    /// its chunks ([`encoded::fold`]): COUNT from validity headers,
    /// SUM/AVG/MIN/MAX over RLE runs.
    ///
    /// Errors come out as if the scan had finished before the fold began: a
    /// failed fold stops the folding, not the scan, and the lowest-index
    /// scan error wins over any fold error.
    fn scan(
        &self,
        ctx: &ExecContext,
        paths: &[String],
        projection: &[usize],
        filters: &[BoundExpr],
    ) -> Result<()> {
        // The scan operator keeps its span, so query profiles keep their
        // shape and span byte sums still reconcile against the bill.
        let mut scan_span = ctx.trace.span("scan");
        let sctx = ctx.under(&scan_span);
        let scan = ScanMorsels::open(&sctx, paths, projection, filters)?;
        let unfiltered_total = self.group_exprs.is_empty()
            && filters.is_empty()
            && !self.aggs.iter().any(|a| a.distinct);
        // The chunk of each argument, when every argument is a bare column.
        let chunk_columns: Option<Vec<usize>> = unfiltered_total
            .then(|| {
                (Accumulators::new(self.aggs).args().iter())
                    .map(|arg| match arg {
                        BoundExpr::ColumnRef { index, .. } => Some(*index),
                        _ => None,
                    })
                    .collect()
            })
            .flatten();
        let produced = scan.run(|span, i, lazy| {
            let rows = match &chunk_columns {
                Some(columns) => {
                    let rows = lazy.num_rows();
                    scan.meter(span, i, rows);
                    self.morsel(i, rows, |partial| partial.fold_chunks(&lazy, columns));
                    rows
                }
                None => {
                    let batch = scan.kept_rows(span, i, &lazy, None)?;
                    let rows = batch.num_rows();
                    scan.meter(span, i, rows);
                    self.morsel(i, rows, |partial| partial.fold(&batch, self.group_exprs));
                    rows
                }
            };
            Ok(rows)
        })?;
        scan_span.record_u64("rows_out", produced.iter().sum::<usize>() as u64);
        Ok(())
    }

    /// Feed materialized batches, one morsel per run of
    /// [`parallel::partition_rows`] at the fold's parallelism.
    fn batches(&self, input: &[RecordBatch]) -> Result<()> {
        let rows: Vec<usize> = input.iter().map(RecordBatch::num_rows).collect();
        let runs = parallel::partition_rows(&rows, self.parallelism);
        parallel::run_indexed(runs.len(), self.parallelism, |i| {
            let run = &input[runs[i].clone()];
            self.morsel(i, rows[runs[i].clone()].iter().sum(), |partial| {
                run.iter()
                    .try_for_each(|batch| partial.fold(batch, self.group_exprs))
            });
            Ok(())
        })?;
        Ok(())
    }

    /// Fold morsel `i`, of `rows` rows, by `fold`.
    fn morsel(&self, i: usize, rows: usize, fold: impl FnOnce(&mut Partial) -> Result<()>) {
        if i > self.failed.load(Ordering::Relaxed) {
            return;
        }
        if self.parallelism <= 1 {
            let mut merged = self.merged.lock();
            if rows > 0 {
                if let Err(e) = fold(&mut merged.acc) {
                    merged.error = Some(e);
                    self.failed.store(i, Ordering::Relaxed);
                }
            }
            return;
        }
        let part = (rows > 0)
            .then(|| {
                let mut part = Partial::new(&key_types(self.group_exprs), self.aggs);
                fold(&mut part).map(|()| part)
            })
            .transpose();
        if part.is_err() {
            self.failed.fetch_min(i, Ordering::Relaxed);
        }
        let mut merged = self.merged.lock();
        let merged = &mut *merged;
        merged.ahead.insert(i, part);
        while merged.error.is_none() {
            let Some(part) = merged.ahead.remove(&merged.next) else {
                break;
            };
            let merge = match part {
                Ok(None) => Ok(()),
                // The first partial is the running one as it stands.
                Ok(Some(part)) if merged.acc.table.is_empty() => {
                    merged.acc = part;
                    Ok(())
                }
                Ok(Some(part)) => merge_partial(&mut merged.acc, part),
                Err(e) => Err(e),
            };
            if let Err(e) = merge {
                merged.error = Some(e);
                self.failed.fetch_min(merged.next, Ordering::Relaxed);
            }
            merged.next += 1;
        }
    }

    fn finish(self) -> Result<Partial> {
        let merged = self.merged.into_inner();
        match merged.error {
            Some(e) => Err(e),
            None => Ok(merged.acc),
        }
    }
}

/// Materialize a merged [`Partial`] into the final output batch: group key
/// columns followed by finished aggregate values. Shared by the in-process
/// path and the exchange final stage ([`finish_spilled`]), so both produce
/// bit-identical output (including the one-row result of a global aggregate
/// over no rows).
pub(crate) fn finish_partial(
    mut acc: Partial,
    output_schema: &SchemaRef,
) -> Result<Vec<RecordBatch>> {
    let group_len = acc.keys.types.len();
    // Global aggregate over zero rows still yields one output row.
    if group_len == 0 && acc.accs.groups() == 0 {
        acc.accs.resize(1);
    }
    let mut columns = acc.keys.columns()?;
    columns.extend(acc.accs.finish(&output_schema.fields()[group_len..])?);
    Ok(vec![RecordBatch::try_new(output_schema.clone(), columns)?])
}

/// [`finish_partial`] of a partial that crossed the exchange: `keys` are its
/// key columns and `states` its [`Accumulators::spill_columns`], `rows` rows
/// in group order. Every aggregate but AVG spilled its final value.
pub(crate) fn finish_spilled(
    mut keys: Vec<Column>,
    states: &[Column],
    rows: usize,
    aggs: &[AggExpr],
    output_schema: &SchemaRef,
) -> Result<Vec<RecordBatch>> {
    if keys.is_empty() && rows == 0 {
        return finish_partial(Partial::new(&[], aggs), output_schema);
    }
    for (agg, pair) in aggs.iter().zip(states.chunks(2)) {
        keys.push(match (agg.func, pair[0].data(), pair[1].data()) {
            (AggFunc::Avg, ColumnData::Float64(sums), ColumnData::Int64(counts))
                if pair[0].null_count() + pair[1].null_count() == 0 =>
            {
                average(sums.iter().copied().zip(counts.iter().copied()))?
            }
            (AggFunc::Avg, ..) => {
                return Err(Error::Exec("corrupt AVG spill state".into()));
            }
            _ => pair[0].clone(),
        });
    }
    Ok(vec![RecordBatch::try_new(output_schema.clone(), keys)?])
}
