//! `imcbench repeat`: runs every workload N times, alternating which
//! workload goes first, each run in its own process with its own seed,
//! and prints each metric's median and quartiles — the evidence for the
//! bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Value;

use crate::stats::sorted;
use crate::Workload;

struct Opts {
    runs: usize,
    seconds: String,
    seed_base: u64,
    workloads: Vec<Workload>,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        runs: 10,
        seconds: "40".into(),
        seed_base: 1,
        workloads: Workload::ALL.to_vec(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => o.runs = val.parse().map_err(|e| format!("--runs {val}: {e}"))?,
            "--seconds" => o.seconds.clone_from(val),
            "--seed-base" => {
                o.seed_base = val.parse().map_err(|e| format!("--seed-base {val}: {e}"))?;
            }
            "--workloads" => {
                o.workloads = val
                    .split(',')
                    .map(Workload::parse)
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.runs == 0 || o.workloads.is_empty() {
        return Err("need at least one run of one workload".into());
    }
    Ok(o)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let x = sorted(values.to_vec());
    let n = x.len();
    if n == 1 {
        return [x[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// Per workload: every metric's values and unit, plus run tallies.
#[derive(Default)]
struct Tally {
    metrics: BTreeMap<String, (String, Vec<f64>)>,
    attempted: u64,
    failed: u64,
    incorrect: usize,
}

fn one_run(
    exe: &std::path::Path,
    w: Workload,
    seed: u64,
    o: &Opts,
    t: &mut Tally,
) -> Result<(), String> {
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line {line:?}: {e}"))?;
    let err = |e: serde::Error| format!("result line {line:?}: {e}");
    t.attempted += v.field("attempted").and_then(Value::as_u64).map_err(err)?;
    t.failed += v.field("failed").and_then(Value::as_u64).map_err(err)?;
    if !v.field("correct").and_then(Value::as_bool).map_err(err)? {
        t.incorrect += 1;
    }
    let Value::Object(metrics) = v.field("metrics").map_err(err)? else {
        return Err(format!("result line {line:?}: metrics is not an object"));
    };
    for (name, m) in metrics {
        let value = m.field("value").and_then(Value::as_f64).map_err(err)?;
        let unit = m.field("unit").and_then(Value::as_str).map_err(err)?;
        let e = t
            .metrics
            .entry(name.clone())
            .or_insert_with(|| (unit.to_owned(), Vec::new()));
        e.1.push(value);
    }
    Ok(())
}

pub fn main(argv: &[String]) -> Result<(), String> {
    let o = parse(argv)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut tallies: Vec<Tally> = o.workloads.iter().map(|_| Tally::default()).collect();
    for i in 0..o.runs {
        let seed = o.seed_base + i as u64;
        for k in 0..o.workloads.len() {
            let wi = (i + k) % o.workloads.len();
            one_run(&exe, o.workloads[wi], seed, &o, &mut tallies[wi])?;
            eprintln!(
                "imcbench repeat: run {} {} seed {seed} done",
                i + 1,
                o.workloads[wi].name()
            );
        }
    }
    for (w, t) in o.workloads.iter().zip(&tallies) {
        println!(
            "\n{}: {} runs, seeds {}..={}, attempted {}, failed {}, runs not correct {}",
            w.name(),
            o.runs,
            o.seed_base,
            o.seed_base + o.runs as u64 - 1,
            t.attempted,
            t.failed,
            t.incorrect
        );
        println!(
            "  {:<28} {:>9} {:>14} {:>14} {:>14} {:>9}",
            "metric", "unit", "q1", "median", "q3", "iqr/med"
        );
        for (name, (unit, vals)) in &t.metrics {
            let [q1, med, q3] = quartiles(vals);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs() * 100.0
            };
            println!("  {name:<28} {unit:>9} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>8.2}%");
            let runs: Vec<String> = vals.iter().map(|v| format!("{v:.4}")).collect();
            println!("  {:<28} runs in order: {}", "", runs.join(" "));
        }
    }
    Ok(())
}
