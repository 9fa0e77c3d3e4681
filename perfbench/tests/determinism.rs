//! The benchmark is deterministic in its seed: at toy size, two runs
//! with one seed produce identical counts, and another seed produces a
//! different request stream. Also checks that every run reports
//! exactly the metrics `BENCHMARK.json` declares.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["serve-hot", "serve-cold", "maintain"];

/// Counts that must repeat exactly for a given seed.
const EXACT: [&str; 9] = [
    "catalog.cold_loads",
    "catalog.evictions",
    "cache.misses",
    "ingest.checkpoints",
    "io.fsyncs",
    "io.bytes_written",
    "io.renames",
    "ingest.write_bytes_per_delta",
    "ingest.fsyncs_per_delta",
];

struct Run {
    json: String,
    stream: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "xtwig-perfbench-test-{workload}-{seed}-{trace}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("create a working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_xtwig-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--size",
            "toy",
        ])
        .current_dir(&work)
        .output()
        .expect("run the benchmark");
    let _ = std::fs::remove_dir_all(&work);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let stream = stderr
        .lines()
        .find_map(|l| l.strip_prefix("request stream fingerprint: "))
        .expect("the fingerprint line")
        .to_owned();
    Run {
        json: stdout.lines().last().expect("a result line").to_owned(),
        stream,
    }
}

/// The value text of metric `name` in a result line.
fn value<'a>(json: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let rest = &json[at..];
    &rest[..rest.find(',').expect("a unit follows the value")]
}

/// The metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("the section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("a closing quote")].to_owned())
        .collect()
}

/// The metric names of a result line, in order.
fn names(json: &str) -> Vec<String> {
    let parts: Vec<&str> = json.split("\": {\"value\": ").collect();
    parts[..parts.len() - 1]
        .iter()
        .filter_map(|s| s.rsplit('"').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn same_seed_same_counts_other_seed_other_stream() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 5, 1), run(w, 5, 1));
        assert!(a.json.starts_with("{\"correct\": true"), "{w}: {}", a.json);
        for m in EXACT {
            assert_eq!(value(&a.json, m), value(&b.json, m), "{w}: {m}");
        }
        assert_eq!(a.stream, b.stream, "{w}: stream");

        let (c, d) = (run(w, 5, 0), run(w, 5, 0));
        for m in ["rel_error", "stored_bytes", "success_rate"] {
            assert_eq!(value(&c.json, m), value(&d.json, m), "{w}: {m}");
        }
        assert_eq!(c.stream, a.stream, "{w}: tracing changed the stream");

        let e = run(w, 6, 0);
        assert_ne!(e.stream, c.stream, "{w}: seed 6 repeats seed 5's stream");

        assert_eq!(
            names(&c.json),
            declared("end_to_end"),
            "{w}: end-to-end names"
        );
        assert_eq!(
            names(&a.json),
            declared("per_layer"),
            "{w}: per-layer names"
        );
    }
}
