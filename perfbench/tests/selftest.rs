//! The benchmark's own self-test: every workload at a tiny size prints
//! every metric `BENCHMARK.json` names, with its unit, and a deliberately
//! falsified output fails the correctness gate.

use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["sketch_mixed", "serve_mixed"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |i| i + 1);
    let body = &body[..end];
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let k = format!("\"{key}\": \"");
        let i = s.find(&k)? + k.len();
        let j = s[i..].find('"')? + i;
        Some((s[i..j].to_string(), j))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, at)) = field(rest, "name") {
        let (unit, after) = field(&rest[at..], "unit").expect("every metric has a unit");
        out.push((name, unit));
        rest = &rest[at + after..];
    }
    assert!(!out.is_empty(), "no metrics in {section}");
    out
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("run perfbench")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or_default().to_string()
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args =
        vec!["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace];
    args.extend_from_slice(extra);
    run(&args)
}

fn assert_prints_all(workload: &str, trace: &str, section: &str) {
    let out = tiny(workload, trace, &[]);
    let line = last_line(&out);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{}",
        line,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
    for (name, unit) in metrics(section) {
        let key = format!("\"{name}\": {{\"value\": ");
        let at =
            line.find(&key).unwrap_or_else(|| panic!("{workload} does not print {name}: {line}"));
        let rest = &line[at + key.len()..];
        assert!(
            rest.split('}').next().is_some_and(|m| m.ends_with(&format!("\"unit\": \"{unit}\""))),
            "{workload}: {name} not printed with unit {unit}: {rest:.80}"
        );
    }
}

#[test]
fn sketch_mixed_prints_every_metric() {
    assert_prints_all("sketch_mixed", "0", "end_to_end");
    assert_prints_all("sketch_mixed", "1", "per_layer");
}

#[test]
fn serve_mixed_prints_every_metric() {
    assert_prints_all("serve_mixed", "0", "end_to_end");
    assert_prints_all("serve_mixed", "1", "per_layer");
}

#[test]
fn falsified_output_fails_the_gate() {
    for w in WORKLOADS {
        let out = tiny(w, "0", &["--corrupt"]);
        let line = last_line(&out);
        assert_eq!(out.status.code(), Some(1), "{w} passed with a falsified output: {line}");
        assert!(line.starts_with("{\"correct\": false,"), "{w}: {line}");
        assert!(
            !line.contains("\"failed\": 0,"),
            "{w}: a failed check must count as a failed operation"
        );
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [&["--workload", "nope"][..], &["--workload", "sketch_mixed", "--seconds", "x"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
