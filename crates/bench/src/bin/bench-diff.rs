//! Compares two `BENCH_<name>.json` reports and fails on regressions.
//!
//! ```text
//! bench-diff <baseline.json> <candidate.json> [--threshold <rel>]
//! bench-diff --self-check <report.json> [<report.json> ...]
//! bench-diff --check-prom <exposition.txt> [<exposition.txt> ...]
//! ```
//!
//! Diff mode compares every `sim.*` metric plus the attribution
//! summary leaf by leaf and exits non-zero when any relative change
//! exceeds the threshold (default 5%) or a key is missing on either
//! side. Self-check mode validates a report in isolation: schema
//! version, required fields, an analysis over an untruncated trace
//! (`"trace_truncated": true` fails), and the attribution-sum
//! invariant (Σ buckets == makespan within 1e-6 relative). Check-prom mode
//! validates a Prometheus text-exposition file: it must parse and
//! contain at least one sample (the CI smoke assertion over `--prom`
//! output).
//!
//! Exit codes: 0 = clean, 1 = regression or invalid report, 2 = usage.

use fred_bench::report::{self, Value};

const DEFAULT_THRESHOLD: f64 = 0.05;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("--self-check") {
        return self_check(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("--check-prom") {
        return check_prom(&args[1..]);
    }
    let mut paths = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    return usage("--threshold needs a number");
                };
                if v.is_nan() || v < 0.0 {
                    return usage("--threshold must be non-negative");
                }
                threshold = v;
                i += 2;
            }
            other if other.starts_with("--") => return usage(&format!("unknown flag `{other}`")),
            _ => {
                paths.push(args[i].clone());
                i += 1;
            }
        }
    }
    if paths.len() != 2 {
        return usage("expected exactly two report files");
    }
    let (a, b) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return 1;
        }
    };
    let entries = match report::diff(&a, &b) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            return 1;
        }
    };
    let name = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "bench-diff: {} vs {} — {} leaves, threshold {:.2}%",
        name(&a),
        name(&b),
        entries.len(),
        100.0 * threshold
    );
    let mut failed = 0usize;
    for e in &entries {
        if e.exceeds(threshold) {
            println!("  REGRESSION  {e}");
            failed += 1;
        } else if e.rel > 0.0 {
            println!("  ok          {e}");
        }
    }
    if failed > 0 {
        println!("bench-diff: {failed} leaf/leaves beyond threshold");
        1
    } else {
        println!("bench-diff: no regression");
        0
    }
}

fn self_check(paths: &[String]) -> i32 {
    if paths.is_empty() {
        return usage("--self-check needs at least one report file");
    }
    let mut failed = 0usize;
    for path in paths {
        match load(path).and_then(|v| report::self_check(&v).map_err(|e| format!("{path}: {e}"))) {
            Ok(info) => {
                println!("bench-diff: {path} OK");
                for line in info {
                    println!("  {line}");
                }
            }
            Err(e) => {
                eprintln!("bench-diff: FAIL {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        1
    } else {
        0
    }
}

fn check_prom(paths: &[String]) -> i32 {
    if paths.is_empty() {
        return usage("--check-prom needs at least one exposition file");
    }
    let mut failed = 0usize;
    for path in paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| fred_telemetry::prom::parse(&text).map_err(|e| format!("{path}: {e}")))
            .and_then(|samples| {
                if samples.is_empty() {
                    Err(format!("{path}: no samples — exposition is empty"))
                } else {
                    Ok(samples.len())
                }
            });
        match outcome {
            Ok(n) => println!("bench-diff: {path} OK ({n} samples)"),
            Err(e) => {
                eprintln!("bench-diff: FAIL {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        1
    } else {
        0
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    report::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn usage(why: &str) -> i32 {
    eprintln!("bench-diff: {why}");
    eprintln!("usage: bench-diff <baseline.json> <candidate.json> [--threshold <rel>]");
    eprintln!("       bench-diff --self-check <report.json> [<report.json> ...]");
    eprintln!("       bench-diff --check-prom <exposition.txt> [<exposition.txt> ...]");
    2
}
