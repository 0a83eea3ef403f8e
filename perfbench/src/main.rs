//! Host-time benchmark of the FRED simulator: a batch runner that runs
//! a fixed batch of simulations back to back (closed loop, one caller;
//! `dse_pareto` alone uses threads) and reports end-to-end and
//! per-layer metrics.
//!
//! ```text
//! fred-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fred-perfbench --self-test
//! fred-perfbench --record-expected <path>
//! ```
//!
//! A run sets the workload up several times, then makes a fixed number
//! of untraced passes over the batch (the number that fills `--seconds`
//! at the workload's nominal pass time, at least three), setting up
//! again a fixed number of times after each pass. A reference kernel
//! (see `pace.rs`) runs at the start of each pass, after each step of
//! it and after each set-up;
//! `wall_s` and `setup_s` are medians of host times scaled by it. With
//! `--trace 1` it warms up with one untimed pass, then alternates
//! untraced passes with traced ones, whose spans and counters give the
//! per-layer metrics. Every pass's outputs are checked (see `check.rs`).
//! The last line of standard output is the JSON result.

mod check;
mod cluster;
mod dse;
mod ledger;
mod pace;
mod train;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use check::{Expected, Op, Tally, DEFAULT_SEED};
use ledger::{median, ratio, tail, Ledger, PER_LAYER};

/// One workload's batch, as the run loop sees it.
pub trait Workload {
    /// Operations one pass attempts (charged as failed if it panics).
    fn ops_per_pass(&self) -> u64;
    /// One untraced pass over the batch, with its coarse steps (one
    /// simulation, one cluster phase, one sweep) timed as spans of
    /// `steps`; the profiler stays off.
    fn pass(&self, steps: &mut Ledger) -> Vec<Op>;
    /// One pass with the benchmark's layer spans on; must produce the
    /// same outputs as [`Workload::pass`].
    fn traced_pass(&self, ledger: &mut Ledger) -> Vec<Op>;
    /// Per-layer measurements taken once, outside the timed passes.
    fn probe(&self, _ledger: &mut Ledger) -> Vec<Op> {
        Vec::new()
    }
    /// Worker threads the workload runs on.
    fn threads(&self) -> usize {
        1
    }
    /// Extra reported results derived from a pass's outputs.
    fn notes(&self, _ops: &[Op]) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

type Setup = fn(u64, usize, &mut Ledger) -> Box<dyn Workload>;

/// A workload and the fixed sizes of a run of it. The sizes depend on
/// nothing measured, so every build makes the same number of passes and
/// set-ups for a given `--seconds`, and every estimate has the same
/// sample size.
struct Spec {
    name: &'static str,
    /// Nominal host seconds of one untraced pass (about its time on the
    /// 2-core reference host); a run makes `--seconds / pass_s` passes.
    pass_s: f64,
    /// Set-ups before the first pass and again after each untraced pass.
    setups: usize,
    setup: Setup,
}

const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "train_paper",
        pass_s: 7.0,
        setups: 20,
        setup: |_, _, l| Box::new(train::Training::setup(false, l)),
    },
    Spec {
        name: "train_traced",
        pass_s: 4.5,
        setups: 20,
        setup: |_, _, l| Box::new(train::Training::setup(true, l)),
    },
    Spec {
        name: "cluster_churn",
        pass_s: 4.0,
        setups: 5,
        setup: |seed, _, l| Box::new(cluster::ClusterChurn::setup(seed, l)),
    },
    Spec {
        name: "dse_pareto",
        pass_s: 1.6,
        setups: 10,
        setup: |seed, threads, l| Box::new(dse::DsePareto::setup(seed, threads, l)),
    },
];

/// Untraced passes a run makes at least.
const MIN_PASSES: usize = 3;
/// A run stops after the pass that ends past this many host seconds,
/// even short of its passes, so a far slower build still exits in time.
const HARD_STOP_S: f64 = 120.0;
/// Set-up metrics, taken from the set-up repetitions.
const SETUP_LAYER: [&str; 3] = [
    "workloads.backend_build_s",
    "cluster.calibrate_s",
    "dse.enumerate_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
    Record(String),
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fred-perfbench: {msg}");
    eprintln!(
        "usage: fred-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         fred-perfbench --self-test | --record-expected <path>",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--self-test" => return Ok(Mode::SelfTest),
            "--record-expected" => return Ok(Mode::Record(value()?)),
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Mode::Run(args)) => run(&args),
        Ok(Mode::SelfTest) => self_test(),
        Ok(Mode::Record(path)) => record(&path),
        Err(msg) => usage(&msg),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn spec_of(name: &str) -> &'static Spec {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("workload names are validated")
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs `f` (one pass), charging every op as failed if it panics.
fn guarded(w: &dyn Workload, tally: &mut Tally, f: impl FnOnce() -> Vec<Op>) -> Vec<Op> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(ops) => ops,
        Err(p) => {
            tally.lost(w.ops_per_pass(), &panic_text(p.as_ref()));
            Vec::new()
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let spec = spec_of(&args.workload);
    let threads = nproc();
    let expected = Expected::builtin();
    let mut tally = Tally::default();
    let passes = MIN_PASSES.max((args.seconds / spec.pass_s) as usize);
    // A traced run warms up with one pass, then makes rounds of an
    // untraced and a traced pass each.
    let rounds = if args.trace {
        ((passes - 1) / 2).max(1)
    } else {
        passes
    };

    // Set-up, repeated here and between passes, each time followed by
    // the reference kernel; `setup_s` is the median paced set-up.
    let mut setup_ledger = Ledger::default();
    let mut setup_paced = Vec::new();
    let mut set_up = || {
        let mut workload = None;
        for _ in 0..spec.setups {
            drop(workload.take());
            setup_ledger.begin(false);
            let t = Instant::now();
            let w = (spec.setup)(args.seed, threads, &mut setup_ledger);
            let dt = t.elapsed().as_secs_f64();
            setup_ledger.end(dt);
            setup_paced.push(dt / pace::kernel());
            workload = Some(w);
        }
        workload.expect("every workload sets up at least once")
    };
    let w = set_up();
    let w = w.as_ref();

    // A traced run compares single passes, so it first warms caches and
    // the allocator with one untimed (but checked) pass.
    if args.trace {
        let ops = guarded(w, &mut tally, || w.pass(&mut Ledger::default()));
        tally.check(&ops, &expected, args.seed);
    }

    // Timed passes.
    let mut ledger = Ledger::default();
    let mut walls = Vec::new();
    let mut steps = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last_ops = Vec::new();
    let start = Instant::now();
    for _ in 0..rounds {
        let t = Instant::now();
        let mut timer = Ledger::paced();
        let ops = guarded(w, &mut tally, || w.pass(&mut timer));
        // The pass's own time, without the reference kernel's.
        let wall = t.elapsed().as_secs_f64() - timer.pace_s();
        walls.push(wall);
        // The pass's paced steps, then whatever time they did not cover.
        let mut s = timer.steps().to_vec();
        s.push((wall - timer.covered()) / timer.pace_median());
        steps.push(s);
        tally.check(&ops, &expected, args.seed);
        last_ops = if ops.is_empty() { last_ops } else { ops };
        drop(set_up());
        if args.trace {
            ledger.begin(true);
            let t = Instant::now();
            let ops = guarded(w, &mut tally, || w.traced_pass(&mut ledger));
            let wall = t.elapsed().as_secs_f64();
            ledger.end(wall);
            traced_walls.push(wall);
            tally.check(&ops, &expected, args.seed);
        }
        if start.elapsed().as_secs_f64() > HARD_STOP_S {
            break;
        }
    }
    let mut probe = Ledger::default();
    if args.trace {
        probe.begin(false);
        let ops = guarded(w, &mut tally, || w.probe(&mut probe));
        tally.check(&ops, &expected, args.seed);
        probe.end(0.0);
    }

    let wall_s = paced_pass(&steps).unwrap_or_else(|| median(&walls));
    let setup_s = pace::PACE_S * median(&setup_paced);
    let peak_rss_mb = peak_rss_mb();
    let notes = w.notes(&last_ops);
    let fail_frac = ratio(tally.failed as f64, tally.attempted as f64);
    for r in &tally.reasons {
        eprintln!("fred-perfbench: FAILED {r}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        per_layer(&ledger, &probe, &setup_ledger, &walls, &traced_walls)
    } else {
        vec![
            ("wall_s", wall_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };

    println!(
        "workload {}  seed {}  passes {}  traced passes {}  threads {}  nproc {}",
        args.workload,
        args.seed,
        walls.len(),
        traced_walls.len(),
        w.threads(),
        threads
    );
    let mut shown: Vec<(&str, f64, &str)> = metrics.clone();
    shown.push(("wall_median_s", median(&walls), "s"));
    shown.push(("fail_frac", fail_frac, "ratio"));
    shown.extend(notes.iter().copied());
    for (name, value, unit) in &shown {
        println!("  {name:<30} {value:>16.6} {unit}");
    }

    let mut meta = format!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{threads},\"threads\":{},\
         \"profile\":\"{}\",\"git_commit\":\"{}\",\"passes\":{},\"traced_passes\":{},\
         \"fail_frac\":{}",
        args.workload,
        args.seed,
        w.threads(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit(),
        walls.len(),
        traced_walls.len(),
        json_num(fail_frac),
    );
    for (name, value, _) in &notes {
        meta.push_str(&format!(",\"{name}\":{}", json_num(*value)));
    }
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(",")
    };
    meta.push_str(&format!(
        ",\"pass_walls_s\":[{}],\"traced_pass_walls_s\":[{}]}}}}",
        list(&walls),
        list(&traced_walls)
    ));
    println!("{meta}");

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One pass's host time at the reference speed: the sum over its steps
/// of each step's median paced time across passes, times
/// [`pace::PACE_S`]. Each step is divided by the mean of the reference
/// kernel's times just before and just after it, so a spell in which
/// other tenants slow the host slows both alike. `None` when passes disagree on their steps (a pass
/// failed part way).
fn paced_pass(passes: &[Vec<f64>]) -> Option<f64> {
    let n = passes.first()?.len();
    if passes.iter().any(|p| p.len() != n) {
        return None;
    }
    let sum: f64 = (0..n)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum();
    Some(pace::PACE_S * sum)
}

/// Every per-layer metric: medians over traced passes, probe values,
/// set-up medians, and per-item percentiles.
fn per_layer(
    ledger: &Ledger,
    probe: &Ledger,
    setup: &Ledger,
    walls: &[f64],
    traced_walls: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    let distributions = [
        (
            "iteration",
            [
                "workloads.iteration_p50_ms",
                "workloads.iteration_tail_ms",
                "workloads.iteration_tail_pct",
                "workloads.iteration_samples",
            ],
        ),
        (
            "dse.point",
            [
                "dse.point_p50_ms",
                "dse.point_tail_ms",
                "dse.point_tail_pct",
                "dse.point_samples",
            ],
        ),
    ];
    for (item, [p50, tail_ms, tail_pct, samples]) in distributions {
        let xs: Vec<f64> = ledger
            .items(item)
            .iter()
            .chain(probe.items(item))
            .copied()
            .collect();
        let (pct, value) = tail(&xs).unwrap_or((0.0, 0.0));
        derived.insert(p50, 1e3 * median(&xs));
        derived.insert(tail_ms, 1e3 * value);
        derived.insert(tail_pct, pct);
        derived.insert(samples, xs.len() as f64);
    }
    derived.insert(
        "trace_overhead_frac",
        ratio(median(traced_walls), median(walls)) - 1.0,
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if let Some(v) = derived.get(name) {
                *v
            } else if SETUP_LAYER.contains(&name) {
                setup.median(name)
            } else if ledger.has(name) {
                ledger.median(name)
            } else {
                probe.median(name)
            };
            (name, value, unit)
        })
        .collect()
}

/// JSON number text: the shortest form that reads back exactly.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{refname}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One untraced pass of each workload at the default seed.
fn default_passes() -> Vec<(&'static str, Vec<Op>)> {
    WORKLOADS
        .iter()
        .map(|spec| {
            let w = (spec.setup)(DEFAULT_SEED, nproc(), &mut Ledger::default());
            (spec.name, w.pass(&mut Ledger::default()))
        })
        .collect()
}

/// Writes the expected-values file from one pass of every workload.
fn record(path: &str) -> ExitCode {
    let mut all: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (name, ops) in default_passes() {
        for op in ops {
            if let Some(e) = &op.error {
                eprintln!("fred-perfbench: {name}: {} failed: {e}", op.key);
                return ExitCode::FAILURE;
            }
            if let Some(prev) = all.insert(op.key.clone(), op.words.clone()) {
                if prev != op.words {
                    eprintln!("fred-perfbench: {} differs between workloads", op.key);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Err(e) = std::fs::write(path, Expected::render(DEFAULT_SEED, &all)) {
        eprintln!("fred-perfbench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("recorded {} expected values to {path}", all.len());
    ExitCode::SUCCESS
}

/// Shows the correctness check works: each workload's default-seed
/// outputs pass against the recorded values, and fail exactly once
/// when one recorded value is corrupted, or when a second pass (at a
/// seed with no recorded cluster or DSE values) differs in that op.
fn self_test() -> ExitCode {
    let expected = Expected::builtin();
    let mut ok = true;
    for (name, ops) in default_passes() {
        let mut clean = Tally::default();
        clean.check(&ops, &expected, DEFAULT_SEED);
        let Some(victim) = ops.iter().find(|o| expected.contains(&o.key)) else {
            println!("self-test {name}: FAIL (no op has a recorded value)");
            ok = false;
            continue;
        };
        let mut corrupt = Tally::default();
        corrupt.check(&ops, &expected.corrupted(&victim.key), DEFAULT_SEED);
        let mut again = ops.clone();
        for op in again.iter_mut().filter(|o| o.key == victim.key) {
            op.words[0] ^= 1;
        }
        let mut diverged = Tally::default();
        diverged.check(&ops, &expected, DEFAULT_SEED + 1);
        diverged.check(&again, &expected, DEFAULT_SEED + 1);
        let pass = clean.failed == 0 && corrupt.failed == 1 && diverged.failed == 1;
        ok &= pass;
        println!(
            "self-test {name}: {} (clean: {}/{} failed; corrupted {}: {}/{} failed, \
             fail_frac {:.6}; second pass differing there: {}/{} failed)",
            if pass { "ok" } else { "FAIL" },
            clean.failed,
            clean.attempted,
            victim.key,
            corrupt.failed,
            corrupt.attempted,
            ratio(corrupt.failed as f64, corrupt.attempted as f64),
            diverged.failed,
            diverged.attempted,
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
