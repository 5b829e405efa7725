//! Printing a run, and comparing two sets of runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use serde_json::Value;

use crate::run::Outcome;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};

/// A JSON number with all its digits.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object(outcome: &Outcome, full: bool) -> String {
    let fields: Vec<String> = outcome
        .metrics
        .iter()
        .map(|metric| {
            let mut extra = String::new();
            if full {
                if let Some(raw) = metric.raw {
                    let _ = write!(extra, ", \"raw\": {}", number(raw));
                }
                if let Some(spread) = metric.spread {
                    let _ = write!(extra, ", \"spread\": {}", number(spread));
                }
            }
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{extra}}}",
                quoted(metric.name),
                number(metric.value),
                quoted(metric.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result object the benchmark contract asks for, on one line.
pub fn contract_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_object(outcome, false)
    )
}

/// The full record of a run, on one line: the contract's fields plus what
/// the noise guard needs to judge the numbers later.
pub fn record_line(outcome: &Outcome) -> String {
    let list = |items: &[String]| {
        let quoted: Vec<String> = items.iter().map(|item| quoted(item)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let rows: Vec<String> = outcome
        .segments
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|cell| number(*cell)).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    let segments = format!("[{}]", rows.join(", "));
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"commit\": {}, \"nproc\": {}, \"pinned_cpu\": {}, \"loadavg_start\": {}, \"steal_share\": {}, \
         \"calibration_us\": [{}, {}], \"segments\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": {}, \
         \"warnings\": {}, \"metrics\": {}}}",
        quoted(&outcome.args.workload),
        outcome.args.seed,
        number(outcome.args.seconds),
        outcome.args.trace,
        outcome.args.quick,
        quoted(&outcome.commit),
        outcome.nproc,
        outcome
            .pinned_cpu
            .map_or("null".to_string(), |cpu| cpu.to_string()),
        number(outcome.loadavg_start),
        number(outcome.steal_share),
        number(outcome.calibration_us.0),
        number(outcome.calibration_us.1),
        segments,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        list(&outcome.problems),
        list(&outcome.warnings),
        metrics_object(outcome, true)
    )
}

/// Prints every metric by name and unit, the noise guard's context, and —
/// last — the contract's result line.
pub fn print(outcome: &Outcome) {
    let args = &outcome.args;
    println!(
        "workload {} seed {} trace {}{} | commit {} | nproc {} ({}) loadavg {} | {} segments | \
         reference kernel {:.0} us undisturbed, {:.0} us median",
        args.workload,
        args.seed,
        u8::from(args.trace),
        if args.quick {
            " QUICK (numbers mean nothing)"
        } else {
            ""
        },
        outcome.commit,
        outcome.nproc,
        outcome
            .pinned_cpu
            .map_or("not pinned".to_string(), |cpu| format!(
                "pinned to cpu {cpu}"
            )),
        outcome.loadavg_start,
        outcome.segments.len(),
        outcome.calibration_us.0,
        outcome.calibration_us.1
    );
    for metric in &outcome.metrics {
        let mut notes = String::new();
        if let Some(raw) = metric.raw {
            let _ = write!(notes, "  (unscaled {})", number(raw));
        }
        if let Some(spread) = metric.spread {
            let _ = write!(notes, "  (spread {spread:.4})");
        }
        println!(
            "  {:<58} {:>18} {}{notes}",
            metric.name,
            number(metric.value),
            metric.unit
        );
    }
    for warning in &outcome.warnings {
        println!("warning: {warning}");
    }
    for problem in &outcome.problems {
        println!("FAILED CHECK: {problem}");
    }
    println!("{}", contract_line(outcome));
}

/// Appends the run's record to `path`.
pub fn append(path: &Path, outcome: &Outcome) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", record_line(outcome))
}

/// The table key under which each run's median reference-kernel reading is
/// kept.
const CALIBRATION: &str = "kernel median (us)";

/// Values of one metric on one workload across a set's runs.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<(Table, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut table = Table::new();
    let mut faults = Vec::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record: Value = serde_json::from_str(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), number + 1))?;
        let field = |name: &str| record.get(name);
        let workload = field("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), number + 1))?;
        if field("quick").and_then(Value::as_bool) == Some(true) {
            faults.push(format!(
                "{}:{}: a --quick run is not a measurement",
                path.display(),
                number + 1
            ));
        }
        if field("correct").and_then(Value::as_bool) != Some(true) {
            faults.push(format!(
                "{}:{}: {workload} failed its output checks",
                path.display(),
                number + 1
            ));
        }
        let metrics = field("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}:{}: no metrics", path.display(), number + 1))?;
        // How disturbed the box was, kept beside the metrics so a verdict
        // can be read against it.
        let calibration = field("calibration_us")
            .and_then(Value::as_array)
            .and_then(|readings| readings.get(1)?.as_f64());
        if let Some(calibration) = calibration.filter(|reading| *reading > 0.0) {
            table
                .entry((workload.to_string(), CALIBRATION.to_string()))
                .or_default()
                .push(calibration);
        }
        for (name, metric) in metrics.iter() {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                table
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok((table, faults))
}

/// Compares set `b` (the change) with set `a` (the base): per workload and
/// end-to-end metric both medians, the ratio with its base, the bound and a
/// verdict; per exact count, equality. Returns the report and whether
/// everything passed.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (base, mut faults) = load(a)?;
    let (change, more) = load(b)?;
    faults.extend(more);
    let mut report = String::new();
    let mut ok = faults.is_empty();
    for fault in &faults {
        let _ = writeln!(report, "invalid: {fault}");
    }
    let _ = writeln!(
        report,
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "change", "change/base", "bound"
    );
    let workloads: Vec<&String> = {
        let mut names: Vec<&String> = base.keys().map(|(w, _)| w).collect();
        names.dedup();
        names
    };
    for workload in workloads {
        let key = (workload.clone(), CALIBRATION.to_string());
        if let (Some(before), Some(after)) = (base.get(&key), change.get(&key)) {
            let (m_before, m_after) = (median(before), median(after));
            let differ = (m_after / m_before - 1.0).abs() > 0.15;
            let _ = writeln!(
                report,
                "{:<20} {:<20} {:>14.1} {:>14.1} {:>9.4} {:>6}  {}",
                workload,
                CALIBRATION,
                m_before,
                m_after,
                m_after / m_before,
                "",
                if differ {
                    "the two sets met different boxes: the scaling was leaned on"
                } else {
                    "comparable conditions"
                }
            );
        }
        for spec in &END_TO_END {
            let key = (workload.clone(), spec.name.to_string());
            let (Some(before), Some(after)) = (base.get(&key), change.get(&key)) else {
                continue;
            };
            let (m_before, m_after) = (median(before), median(after));
            let worsening = spec.better.worsening(m_before, m_after);
            let noise = spread(before).max(spread(after));
            // Every run of the change better than every run of the base
            // resolves a noisy metric in the change's favour.
            let all_better = match spec.better {
                Better::Lower => max(after) < min(before),
                Better::Higher => min(after) > max(before),
            };
            let verdict = if worsening > spec.bound {
                ok = false;
                "REGRESS"
            } else if noise > spec.bound && !all_better {
                "unresolved (spread wider than bound)"
            } else {
                "pass"
            };
            let _ = writeln!(
                report,
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>9.4} {:>6}  {verdict}",
                workload,
                spec.name,
                m_before,
                m_after,
                m_after / m_before,
                spec.bound
            );
        }
        for spec in PER_LAYER.iter().filter(|spec| spec.exact) {
            let key = (workload.clone(), spec.name.to_string());
            let (Some(before), Some(after)) = (base.get(&key), change.get(&key)) else {
                continue;
            };
            let same = before.iter().chain(after).all(|v| *v == before[0]);
            if !same {
                ok = false;
            }
            let _ = writeln!(
                report,
                "{:<20} {:<48} {:>14} {:>14}  {}",
                workload,
                spec.name,
                before[0],
                after[0],
                if same {
                    "equal"
                } else {
                    "DIFFERS (exact count)"
                }
            );
        }
    }
    Ok((report, ok))
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}
