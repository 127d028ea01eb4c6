//! Arithmetic and parsers, on fixed inputs.

use hupc_benchmark::harness::{check_exact, parse_child_output, ChildOut};
use hupc_benchmark::metrics::Better;
use hupc_benchmark::probe::Probe;
use hupc_benchmark::procfs::{parse_stat, parse_status_kb, Stat};
use hupc_benchmark::report::{exact_differences, result_json, worsening};
use hupc_benchmark::stats::{median, Summary};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
    assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
    assert!((s.spread() - 1.0).abs() < 1e-12);
    // statistics.quantiles([2.5, 2.6, 2.4, 2.7, 2.55], n=4) == [2.45, 2.55, 2.65]
    let s = Summary::of(&[2.5, 2.6, 2.4, 2.7, 2.55]).unwrap();
    assert!((s.q1 - 2.45).abs() < 1e-12 && (s.q3 - 2.65).abs() < 1e-12);
    assert_eq!(s.median, 2.55);
    // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: extrapolates.
    let s = Summary::of(&[3.0, 1.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
}

#[test]
fn summary_of_one_or_no_samples() {
    assert!(Summary::of(&[]).is_none());
    let s = Summary::of(&[4.0]).unwrap();
    assert_eq!(
        (s.n, s.q1, s.median, s.q3, s.spread()),
        (1, 4.0, 4.0, 4.0, 0.0)
    );
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn stat_parser_survives_a_hostile_command_name() {
    let text = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 1500 0 7 0 253 31 0 0 20 0 1 0 \
                123456 1000000 250 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0";
    assert_eq!(
        parse_stat(text),
        Some(Stat {
            minor_faults: 1500,
            utime_ticks: 253,
            stime_ticks: 31,
        })
    );
    assert_eq!(parse_stat("1 (x) R 1 2"), None);
    assert_eq!(parse_stat("no parenthesis at all"), None);
}

#[test]
fn status_parser_reads_kib_lines() {
    let text = "Name:\tx\nVmPeak:\t  900000 kB\nVmHWM:\t  530432 kB\nVmRSS:\t  1024 kB\n";
    assert_eq!(parse_status_kb(text, "VmHWM"), Some(530432));
    assert_eq!(parse_status_kb(text, "VmRSS"), Some(1024));
    assert_eq!(parse_status_kb(text, "VmSwap"), None);
    assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
}

#[test]
fn child_protocol_round_trips_and_rejects_noise() {
    let out =
        parse_child_output("metric host_cpu_s 2.5\nmetric virt_s 0.137793009\nops 9 0\n").unwrap();
    assert_eq!(out.metrics["virt_s"], 0.137793009);
    assert_eq!((out.attempted, out.failed), (9, 0));
    assert!(
        parse_child_output("metric host_cpu_s 2.5\n").is_err(),
        "no ops line"
    );
    assert!(parse_child_output("hello\nops 1 0\n").is_err());
    assert!(parse_child_output("metric x notanumber\nops 1 0\n").is_err());
}

fn child(pairs: &[(&str, f64)]) -> ChildOut {
    ChildOut {
        metrics: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        attempted: 1,
        failed: 0,
    }
}

#[test]
fn exact_metrics_must_agree_and_host_metrics_need_not() {
    let a = child(&[("virt_s", 0.5), ("host.wall_s", 1.0), ("gasnet.puts", 7.0)]);
    let b = child(&[("virt_s", 0.5), ("host.wall_s", 2.0)]);
    assert!(check_exact(&[&a, &b]).is_ok());
    let c = child(&[("virt_s", 0.5000000001)]);
    let err = check_exact(&[&a, &b, &c]).unwrap_err();
    assert!(err.contains("virt_s"), "{err}");
    assert_eq!(
        exact_differences(&a.metrics, &c.metrics),
        vec!["gasnet.puts".to_string(), "virt_s".to_string()]
    );
    assert!(exact_differences(&a.metrics, &a.metrics).is_empty());
}

#[test]
fn worsening_follows_the_direction() {
    assert!((worsening(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
    assert!((worsening(Better::Higher, 2.0, 1.8) - 0.1).abs() < 1e-12);
    assert!(worsening(Better::Lower, 2.0, 1.0) < 0.0);
    assert_eq!(worsening(Better::Lower, 0.0, 1.0), 0.0);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let line = result_json(10, 0, &[("host_cpu_s".to_string(), 2.5034, "s")]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
         \"metrics\": {\"host_cpu_s\": {\"value\": 2.5034, \"unit\": \"s\"}}}"
    );
}

#[test]
fn probe_spans_nest_and_oracle_tallies() {
    let mut p = Probe::new();
    p.span("outer", |p| {
        p.span("inner", |p| p.virt(0.25));
    });
    let spans = p.spans();
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].virt_s, Some(0.25));
    assert!(spans[0].wall_ns.0 <= spans[1].wall_ns.0 && spans[1].wall_ns.1 <= spans[0].wall_ns.1);

    p.check(true, || unreachable!());
    p.tally(10, 0, "fine");
    p.requests(100, 3);
    assert_eq!((p.attempted, p.failed, p.mismatches), (111, 3, 0));
    p.put("bad", f64::NAN);
    assert_eq!(p.metrics().last().unwrap().1, 0.0);
}
