//! E7 — single-turn text-to-SQL accuracy (paper §3.3 / CodeS \[9\]).
//!
//! Runs the built-in Spider-style suite through the CodeS-substitute
//! service and reports exact-match and execution accuracy plus per-question
//! translation latency. The paper cites >80% single-turn execution accuracy
//! for CodeS; the grammar-based substitute reproduces that shape on this
//! suite.

use pixels_bench::{demo_data, TextTable};
use pixels_nl2sql::{evaluate, CodesService, TextToSqlService, CASES};
use std::time::Instant;

fn main() {
    println!("== E7: single-turn text-to-SQL accuracy ==\n");
    let (catalog, store) = demo_data(0.002);
    let service = CodesService::new(catalog.clone(), store.clone());

    // Warm the per-database translators so latency measures translation.
    let _ = service.translate("tpch", "how many orders");
    let _ = service.translate("logs", "how many requests");

    let report = evaluate(&service, &catalog, store, CASES).expect("benchmark runs");

    let mut table = TextTable::new(&["case", "exact", "exec", "note"]);
    for c in &report.cases {
        table.row(&[
            c.id.to_string(),
            if c.exact_match { "yes" } else { "-" }.to_string(),
            if c.execution_match { "yes" } else { "NO" }.to_string(),
            c.error.clone().unwrap_or_default(),
        ]);
    }
    table.print();

    // Latency: single-turn translation must be interactive.
    let mut total_us = 0u128;
    let mut n = 0u128;
    for case in CASES {
        let start = Instant::now();
        let _ = service.translate(case.database, case.question);
        total_us += start.elapsed().as_micros();
        n += 1;
    }
    let mean_ms = total_us as f64 / n as f64 / 1000.0;

    println!(
        "\nexact match      : {}/{} ({:.0}%)",
        report.exact_matches(),
        report.total(),
        report.exact_matches() as f64 / report.total() as f64 * 100.0
    );
    println!(
        "execution accuracy: {}/{} ({:.0}%)",
        report.execution_matches(),
        report.total(),
        report.execution_accuracy() * 100.0
    );
    println!("mean single-turn translation latency: {mean_ms:.2} ms");

    assert!(
        report.execution_accuracy() >= 0.8,
        "execution accuracy must clear the paper's 80% bar"
    );
    println!("\ne7_nl2sql_acc: OK (>80% single-turn execution accuracy)");
}
