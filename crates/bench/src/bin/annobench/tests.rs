//! Smoke tests: every workload end to end at a tiny shape, traced and
//! untraced, and `BENCHMARK.json` against the metric tables in `main.rs`.

use super::*;

/// `BENCHMARK.json`, found by walking up from this package's manifest
/// (the file sits at the repository root whichever package builds us).
fn benchmark_json() -> String {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            return std::fs::read_to_string(&candidate).expect("BENCHMARK.json is readable");
        }
        assert!(dir.pop(), "no BENCHMARK.json above CARGO_MANIFEST_DIR");
    }
}

/// The string values of `key` inside the array stored under `section`.
fn strings_under(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section:?}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section array is closed")];
    let needle = format!("\"{key}\"");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            let open = rest.find('"').expect("a string value follows the key") + 1;
            let close = open + rest[open..].find('"').expect("the string value is closed");
            rest[open..close].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_binary_prints() {
    let json = benchmark_json();
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names = strings_under(&json, section, "name");
        let units = strings_under(&json, section, "unit");
        let listed: Vec<(&str, &str)> = names
            .iter()
            .map(String::as_str)
            .zip(units.iter().map(String::as_str))
            .collect();
        assert_eq!(
            listed, table,
            "{section} differs between BENCHMARK.json and main.rs"
        );
    }
    let workloads = strings_under(&json, "workloads", "name");
    let ours: Vec<&str> = Workload::GATED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
    let ok = args("--workload restart --seed 9 --seconds 2.5 --trace 1").unwrap();
    assert_eq!(ok.workload, Workload::Restart);
    assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 2.5, true));
    assert_eq!(ok.replica, None);
    let child = args("--workload restart --trace 0 --replica 3").unwrap();
    assert_eq!(child.replica, Some(3));
    assert!(args("--seed 1").is_err(), "the workload is required");
    assert!(args("--workload bogus").is_err());
    assert!(args("--workload curate --seconds 0").is_err());
    assert!(args("--workload curate --trace 2").is_err());
    assert!(args("--workload curate --seed").is_err());
}

/// One run at the tiny shape; every wanted metric must come out exactly
/// once (the report refuses duplicates), finite, and — for end-to-end
/// metrics, which the contract requires to be non-zero — positive.
fn smoke(workload: Workload, trace: bool) {
    let args = Args {
        workload,
        seed: 5,
        seconds: 1.5,
        trace,
        replica: None,
    };
    let report = run_benchmark(&args, &Plan::tiny())
        .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
    // The rung-order check compares timings taken seconds apart; on a test
    // machine running every smoke test at once it is allowed to trip.
    let real: Vec<&String> = report
        .failures
        .iter()
        .filter(|f| !f.starts_with("ladder: rung"))
        .collect();
    assert!(
        real.is_empty(),
        "{} trace={trace}: {real:?}",
        workload.name()
    );
    assert!(report.attempted > 0);
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in wanted {
        let value = report
            .get(name)
            .unwrap_or_else(|| panic!("{}: metric {name} was not reported", workload.name()));
        assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
        if !trace {
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
    if real.len() == report.failures.len() {
        let json = result_json(&report, wanted).expect("every wanted metric is finite");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert_eq!(json.matches("\"value\"").count(), wanted.len());
    }
}

/// The result line of a replica that measured `value` for every metric
/// but set-up (`setup`) and memory (`rss`).
fn replica_line(setup: f64, rss: f64, value: f64, failed: u64) -> String {
    let mut report = Report::default();
    for (name, _) in END_TO_END {
        let v = match *name {
            "setup_s" => setup,
            "peak_rss_mb" => rss,
            _ => value,
        };
        report.put(name, v, "");
    }
    report.attempted = 100;
    for _ in 0..failed {
        report.fail("a failed operation".into());
    }
    result_json(&report, END_TO_END).expect("every metric is finite")
}

#[test]
fn replicas_combine_into_one_report() {
    let lines = [
        replica_line(1.0, 40.0, 2.0, 0),
        replica_line(5.0, 60.0, 3.0, 0),
        replica_line(2.0, 50.0, 90.0, 0),
        replica_line(2.0, 50.0, 5.0, 0),
    ];
    assert_eq!(result_field(&lines[0], "attempted"), Some("100"));
    assert_eq!(result_field(&lines[0], "correct"), Some("true"));
    assert_eq!(result_field(&lines[1], "promote_ms"), Some("3"));
    assert_eq!(result_field(&lines[1], "no_such_metric"), None);

    let mut report = Report::default();
    combine(&lines, &mut report).unwrap();
    assert_eq!((report.attempted, report.failed), (400, 0));
    assert_eq!(report.get("setup_s"), Some(2.0), "median");
    assert_eq!(report.get("peak_rss_mb"), Some(60.0), "largest");
    for (name, unit) in &END_TO_END[2..] {
        if unit.ends_with("/s") {
            assert_eq!(report.get(name), Some(4.0), "{name}: mean of 3 and 5");
        } else {
            assert_eq!(report.get(name), Some(2.5), "{name}: mean of 2 and 3");
        }
    }

    // A replica's failed operations are the run's.
    let mut report = Report::default();
    combine(
        &[lines[0].clone(), replica_line(1.0, 40.0, 2.0, 2)],
        &mut report,
    )
    .unwrap();
    assert_eq!((report.attempted, report.failed), (200, 2));
    // A line that lacks a metric is no result.
    assert!(combine(&["{\"correct\": true}".to_string()], &mut Report::default()).is_err());
}

#[test]
fn curate_smoke() {
    smoke(Workload::Curate, false);
    smoke(Workload::Curate, true);
    let trace = output_dir().join("trace-curate.jsonl");
    let text = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
    assert!(
        text.lines().count() > 100,
        "only {} spans",
        text.lines().count()
    );
    assert!(text
        .lines()
        .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
}

#[test]
fn paper_maintain_smoke() {
    smoke(Workload::PaperMaintain, false);
    smoke(Workload::PaperMaintain, true);
}

#[test]
fn flood_read_smoke() {
    smoke(Workload::FloodRead, false);
    smoke(Workload::FloodRead, true);
}

#[test]
fn restart_smoke() {
    smoke(Workload::Restart, false);
    smoke(Workload::Restart, true);
}
