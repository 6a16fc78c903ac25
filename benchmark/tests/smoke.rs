//! End-to-end smoke runs of the benchmark binary at tiny sizes.

use std::process::Command;
use sweep_runner::json::Value;

fn bench(args: &[&str]) -> (bool, Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_slip-benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    let line = Value::parse(&last).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    (out.status.success(), line, stdout)
}

fn metric_names(line: &Value) -> Vec<String> {
    match line.get("metrics") {
        Some(Value::Object(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("metrics object"),
    }
}

fn benchmark_json(list: &str) -> Vec<String> {
    let v = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
    v.get(list)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_owned())
        .collect()
}

#[test]
fn smoke_runs_all_four_workloads_and_reports_every_metric() {
    let (ok, line, stdout) = bench(&["--smoke", "--seed", "7"]);
    assert!(ok, "{stdout}");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Value::as_u64).unwrap() > 0);
    let mut expected: Vec<String> = benchmark_json("end_to_end")
        .iter()
        .flat_map(|m| {
            ["cell_llc", "cell_l1", "sweep_paper", "serve_mix"].map(|w| format!("{m}.{w}"))
        })
        .collect();
    expected.sort();
    let mut names = metric_names(&line);
    names.sort();
    assert_eq!(names, expected);
    for name in &names {
        let value = line.get("metrics").and_then(|m| m.get(name)).unwrap();
        let v = value.get("value").and_then(Value::as_f64).unwrap();
        assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn traced_smoke_reports_every_per_layer_metric() {
    let (ok, line, stdout) = bench(&["--smoke", "--workload", "cell_llc", "--trace", "1"]);
    assert!(ok, "{stdout}");
    let mut names = metric_names(&line);
    names.sort();
    let mut expected = benchmark_json("per_layer");
    expected.sort();
    assert_eq!(names, expected);
    assert!(stdout.contains("ledger ("), "{stdout}");
    assert!(stdout.contains("tracing overhead"), "{stdout}");
}

#[test]
fn injected_mismatch_fails_the_gate() {
    let (ok, line, stdout) = bench(&["--smoke", "--workload", "cell_llc", "--inject-mismatch"]);
    assert!(!ok, "{stdout}");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
    assert!(line.get("failed").and_then(Value::as_u64).unwrap() >= 1);
    assert!(stdout.contains("FAIL"), "{stdout}");
}
