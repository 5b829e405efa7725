//! The command as the driver runs it: every name printed is declared in
//! `BENCHMARK.json` and the other way round, a wrong oracle fails the run,
//! and quick results cannot become baselines.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

use qce_benchmark::spec::{valid_name, END_TO_END, PER_LAYER};
use qce_benchmark::workloads::WORKLOADS;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repo root")
        .to_path_buf()
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qce-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary starts")
}

/// The contract's result object: the last line of standard output.
fn result_of(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("the run printed something");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn declared() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_in(list: &Value) -> BTreeSet<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_and_the_code_declare_the_same_things() {
    let declared = declared();
    let workloads: BTreeSet<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in(declared.get("workloads").unwrap()), workloads);

    let entries = declared.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), END_TO_END.len());
    for (entry, spec) in entries.iter().zip(&END_TO_END) {
        assert_eq!(entry.get("name").unwrap().as_str(), Some(spec.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(spec.unit));
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(spec.better.as_str())
        );
        assert_eq!(entry.get("bound").unwrap().as_f64(), Some(spec.bound));
    }
    let entries = declared.get("per_layer").unwrap().as_array().unwrap();
    assert_eq!(entries.len(), PER_LAYER.len());
    for (entry, spec) in entries.iter().zip(&PER_LAYER) {
        assert_eq!(entry.get("name").unwrap().as_str(), Some(spec.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(spec.unit));
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(spec.better.as_str())
        );
    }
    for name in workloads
        .iter()
        .map(String::as_str)
        .chain(END_TO_END.iter().map(|s| s.name))
        .chain(PER_LAYER.iter().map(|s| s.name))
    {
        assert!(valid_name(name), "{name:?} is not a valid name");
    }
}

#[test]
fn a_quick_run_of_each_workload_prints_exactly_the_declared_metrics() {
    let declared = declared();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = names_in(declared.get(key).unwrap());
        for (workload, _) in WORKLOADS {
            let output = benchmark(&["--workload", workload, "--quick", "--trace", trace]);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{}",
                String::from_utf8_lossy(&output.stdout)
            );
            let result = result_of(&output);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let printed: BTreeSet<String> = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics is an object")
                .iter()
                .map(|(name, metric)| {
                    assert!(valid_name(name), "{name:?} is not a valid name");
                    assert!(metric.get("value").and_then(Value::as_f64).is_some());
                    assert!(metric.get("unit").and_then(Value::as_str).is_some());
                    name.clone()
                })
                .collect();
            assert_eq!(printed, expected, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn a_wrong_oracle_makes_the_run_exit_nonzero() {
    let output = benchmark(&["--workload", "steady_blocking", "--quick", "--break-oracle"]);
    assert!(!output.status.success());
    let result = result_of(&output);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("diverge from the sequential oracle"),
        "{stdout}"
    );
}

#[test]
fn quick_results_are_never_written_and_bad_arguments_are_refused() {
    let out = std::env::temp_dir().join(format!("qce-benchmark-{}.jsonl", std::process::id()));
    let output = benchmark(&[
        "--workload",
        "wall_pingpong",
        "--quick",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(2));
    assert!(!out.exists());
    assert_eq!(benchmark(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(
        benchmark(&["--workload", "wall_pingpong", "--trace", "2"])
            .status
            .code(),
        Some(2)
    );
    assert!(benchmark(&[]).stdout.is_empty());
}

fn record(workload: &str, quick: bool, metrics: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"x\"}}"))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"quick\": {quick}, \"correct\": true, \
         \"metrics\": {{{}}}}}\n",
        metrics.join(", ")
    )
}

#[test]
fn compare_passes_within_the_bound_and_fails_beyond_it() {
    let dir = std::env::temp_dir().join(format!("qce-benchmark-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = write(
        "base.jsonl",
        record(
            "steady_blocking",
            false,
            &[("throughput_rps", 100.0), ("latency_p50_us", 10.0)],
        ) + &record(
            "steady_blocking",
            false,
            &[("runtime.generator.replans", 96.0)],
        ),
    );
    let same = write(
        "same.jsonl",
        record(
            "steady_blocking",
            false,
            &[("throughput_rps", 95.0), ("latency_p50_us", 10.5)],
        ) + &record(
            "steady_blocking",
            false,
            &[("runtime.generator.replans", 96.0)],
        ),
    );
    let slower = write(
        "slower.jsonl",
        record(
            "steady_blocking",
            false,
            &[("throughput_rps", 70.0), ("latency_p50_us", 10.0)],
        ),
    );
    let recount = write(
        "recount.jsonl",
        record(
            "steady_blocking",
            false,
            &[("runtime.generator.replans", 97.0)],
        ),
    );
    let quick = write(
        "quick.jsonl",
        record("steady_blocking", true, &[("throughput_rps", 100.0)]),
    );

    let output = benchmark(&["compare", &base, &same]);
    let text = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(output.status.success(), "{text}");
    assert!(text.contains("pass") && text.contains("equal"), "{text}");

    let output = benchmark(&["compare", &base, &slower]);
    let text = String::from_utf8_lossy(&output.stdout).to_string();
    assert_eq!(output.status.code(), Some(1), "{text}");
    assert!(text.contains("REGRESS"), "{text}");

    let output = benchmark(&["compare", &base, &recount]);
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stdout).contains("DIFFERS"));

    assert_eq!(
        benchmark(&["compare", &base, &quick]).status.code(),
        Some(1)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
