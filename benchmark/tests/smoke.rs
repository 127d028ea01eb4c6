//! Drive the real binary end to end on tiny inputs: all four workloads
//! untraced and traced, the ladder, and the ledger, the way the benchmark
//! driver and a person would.

use std::path::PathBuf;
use std::process::{Command, Output};

use hupc_benchmark::child::{trace_path, EXIT_USAGE};
use hupc_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bench-smoke-{tag}"))
}

fn bench(args: &[&str], tag: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hupc-benchmark"))
        .args(args)
        .arg("--smoke")
        .arg("--out-dir")
        .arg(out_dir(tag))
        // Must not reach the children.
        .env("HUPC_COLL_PLAN", "flat")
        .output()
        .expect("benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("some output")
        .to_string()
}

#[test]
fn driver_mode_reports_every_metric_of_the_requested_kind() {
    for w in WORKLOADS {
        let line = last_line(&bench(
            &[
                "--workload",
                w.name,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            "driver",
        ));
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{line}");
        for m in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{} missing: {line}",
                m.name
            );
        }
        assert!(
            !line.contains("\"virt_s\""),
            "per-layer metric in a --trace 0 result"
        );

        let line = last_line(&bench(
            &[
                "--workload",
                w.name,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                "1",
            ],
            "driver",
        ));
        for m in PER_LAYER {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{} missing: {line}",
                m.name
            );
        }
        assert!(
            !line.contains("\"host_cpu_s\""),
            "end-to-end metric in a --trace 1 result"
        );
        let trace = std::fs::read_to_string(trace_path(&out_dir("driver"), w.name))
            .expect("the Full child wrote its spans");
        assert!(trace.contains("\"name\": \"timed\""), "{trace}");
    }
}

#[test]
fn same_seed_same_virtual_time_other_seed_other_inputs() {
    let virt = |seed: &str| {
        let out = bench(&["--child", "serve_mix", "--seed", seed], "seeds");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find_map(|l| l.strip_prefix("metric virt_s ").map(str::to_string))
            .expect("the child reports virt_s")
    };
    let (a, b, c) = (virt("1"), virt("1"), virt("2"));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn ledger_prints_every_metric_by_name_and_aa_passes_on_exact_numbers() {
    let out = bench(&["--aa", "--seed", "2"], "ledger");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    // Host timings of millisecond-sized smoke runs may miss the A/A bounds;
    // everything exact may not.
    assert!(!text.contains("DIFFER"), "{text}");
    assert!(
        text.contains("exact per-layer metrics: identical"),
        "{text}"
    );
    for w in WORKLOADS {
        assert!(text.contains(&format!("== {} ==", w.name)));
    }
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(text.contains(&format!("  {name} ")), "{name} not printed");
    }
    assert!(text.contains("residual (unexplained)"));
    assert!(
        text.contains("# nproc: ") && text.contains("# rustc: ") && text.contains("# loadavg: ")
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = bench(&["--workload", "no_such_workload", "--trace", "0"], "bad");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let out = bench(&["--child", "no_such_workload"], "bad");
    assert_eq!(out.status.code(), Some(EXIT_USAGE as i32));
    assert!(out.stdout.is_empty());
}
