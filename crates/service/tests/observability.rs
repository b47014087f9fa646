//! What a dataset reports, through every door it is reported by: the
//! Prometheus exposition's shape (a golden captured before the renderer
//! became a table walk), the one definition of "a query", a promoted
//! follower's replication series, and `observability()` against `stats`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use anno_mine::{IncrementalConfig, Thresholds};
use anno_service::{render_prometheus, Engine, Service, UpdateOp};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anno-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> IncrementalConfig {
    IncrementalConfig {
        thresholds: Thresholds::new(0.4, 0.7),
        ..Default::default()
    }
}

fn rows() -> UpdateOp {
    let rows = ["28 85 Annot_1 Annot_2", "28 85 Annot_1", "28 85", "17 99"];
    UpdateOp::InsertRows(rows.iter().map(|r| r.to_string()).collect())
}

/// The exposition with every value stripped: `# HELP` and `# TYPE` lines
/// as they are, series lines as `name{label keys}`.
fn skeleton(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(|line| {
            if line.starts_with('#') {
                return line.to_string();
            }
            let series = line.rsplit_once(' ').expect("series line has a value").0;
            match series.split_once('{') {
                None => series.to_string(),
                Some((name, labels)) => {
                    let keys: Vec<&str> = labels
                        .trim_end_matches('}')
                        .split(',')
                        .map(|kv| kv.split_once('=').expect("label is key=value").0)
                        .collect();
                    format!("{name}{{{}}}", keys.join(","))
                }
            }
        })
        .collect()
}

/// Captured at the parent of the table-driven writer from this same
/// fixture — a mined memory dataset, a durable grouped one and a
/// follower. The one line edited by hand since is the
/// `anno_query_latency_ns` help, which now names all three query kinds.
#[test]
fn exposition_skeleton_matches_the_golden() {
    let dir = test_dir("golden");
    let service = Service::new();
    let mem = service.create("mem", config()).unwrap();
    mem.enqueue(rows()).unwrap();
    mem.mine().unwrap();
    let dur = service.open_durable("dur", config(), &dir).unwrap();
    dur.enqueue(rows()).unwrap();
    dur.mine().unwrap();
    let fol = service
        .attach_follower("fol", config(), &dir, Duration::from_millis(10))
        .unwrap();
    fol.catchup_now().unwrap();
    service.sample_now();
    service.sample_now();

    let got = skeleton(&render_prometheus(&service));
    let want: BTreeSet<String> = include_str!("golden/exposition_skeleton.txt")
        .lines()
        .map(String::from)
        .collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing from the scrape: {missing:#?}\nnot in the golden: {extra:#?}"
    );
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn engine() -> Engine {
    Engine::new(Arc::new(Service::new()))
}

/// One command that must succeed; its reply lines.
fn ok(engine: &Engine, line: &str) -> Vec<String> {
    let reply = engine.execute(line);
    assert!(
        reply.lines[0].starts_with("OK"),
        "{line:?} -> {:?}",
        reply.lines
    );
    reply.lines
}

/// The value printed after `key=` on whichever line of a reply has it
/// (keys are matched whole: `store_segments=` is not `wal_segments=`).
fn value_of(lines: &[String], key: &str) -> String {
    lines
        .iter()
        .flat_map(|l| l.split_whitespace())
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {lines:#?}"))
        .to_string()
}

/// Rule, recommend and discover queries are all "a query": a dataset that
/// served only `discover` has a mean read latency and a query rate.
#[test]
fn discover_queries_count_as_queries_everywhere() {
    let e = engine();
    ok(&e, "open db 0.4 0.7");
    for row in ["28 85 Annot_1 Annot_2", "28 85 Annot_1 Annot_2", "28 85"] {
        ok(&e, &format!("row db {row}"));
    }
    ok(&e, "mine db");
    let service = e.service();
    service.sample_now();
    for _ in 0..8 {
        ok(&e, "discover db");
    }
    // Distinct millisecond timestamps, so the window has a timespan.
    std::thread::sleep(Duration::from_millis(5));
    service.sample_now();

    let report = service.get("db").unwrap().metrics();
    assert_eq!(report.rule_queries + report.recommend_queries, 0);
    assert_eq!(report.discover_queries, 8);
    assert!(report.mean_read_nanos() > Some(0), "{report:?}");
    let stats = ok(&e, "stats db");
    assert_ne!(value_of(&stats, "mean_read_ns"), "0", "{stats:#?}");
    let rates = service.windowed("db").expect("two samples");
    assert!(rates.queries_per_sec > 0.0, "{rates:?}");
    let rates = service.service_windowed().expect("two samples");
    assert!(rates.queries_per_sec > 0.0, "{rates:?}");
}

/// A promoted follower is a leader in every door: `stats` says so, and
/// no `anno_replication_*` series keeps a number from its tailing days.
#[test]
fn promote_zeroes_every_replication_series() {
    let dir = test_dir("promote");
    let dir_tok = dir.to_str().unwrap();
    let e = engine();
    ok(&e, &format!("open db 0.4 0.7 dir {dir_tok}"));
    ok(&e, "row db 28 85 Annot_1");
    ok(&e, "mine db");
    ok(&e, &format!("attach f dir {dir_tok} poll_ms 10"));
    let caught = ok(&e, "catchup f");
    assert_ne!(value_of(&caught, "records_applied"), "0", "{caught:?}");
    let lagging = |metrics: &[String]| -> Vec<String> {
        metrics
            .iter()
            .filter(|l| l.starts_with("anno_replication_") && l.contains("dataset=\"f\""))
            .filter(|l| !l.ends_with(" 0"))
            .cloned()
            .collect()
    };
    assert!(
        !lagging(&ok(&e, "metrics")).is_empty(),
        "a follower reports"
    );

    ok(&e, "drop db");
    ok(&e, "promote f");
    let stats = ok(&e, "stats f");
    assert!(stats.iter().any(|l| l == "role=leader"), "{stats:#?}");
    assert_eq!(lagging(&ok(&e, "metrics")), Vec::<String>::new());
    ok(&e, "drop f");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The levels `observability()` reads from the queue and the published
/// status are the ones `stats <ds>` prints, key for key.
#[test]
fn observability_levels_equal_what_stats_prints() {
    let dir = test_dir("levels");
    let e = engine();
    ok(&e, &format!("open db 0.4 0.7 dir {}", dir.display()));
    for row in ["28 85 Annot_1", "28 85 Annot_1", "17 99"] {
        ok(&e, &format!("row db {row}"));
    }
    ok(&e, "mine db");
    // A paused writer is quiescent with work still queued.
    let ds = e.service().get("db").unwrap();
    ds.pause_writer_for_tests(true);
    ds.enqueue(rows()).unwrap();

    let obs = ds.observability();
    let stats = ok(&e, "stats db");
    assert_eq!(obs.queue_depth, 4);
    assert!(obs.segments >= 1 && obs.vocab_chunks >= 1, "{obs:?}");
    assert!(obs.wal_backlog_bytes > 0, "the loaded rows are logged");
    for (key, level) in [
        ("queue_depth", obs.queue_depth),
        ("unacked_drains", obs.unacked_drains),
        ("store_segments", obs.segments),
        ("vocab_chunks", obs.vocab_chunks),
        ("wal_since_ckpt_bytes", obs.wal_backlog_bytes),
    ] {
        assert_eq!(value_of(&stats, key), level.to_string(), "{key}");
    }
    ds.pause_writer_for_tests(false);
    ok(&e, "drop db");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The README's metrics reference against a rendered exposition, both
/// ways: every family with a `# TYPE` line has exactly one row, and every
/// row is a family the exposition has. The fixture is the golden's — a
/// mined memory dataset, a durable grouped one and a follower — spoken
/// through the protocol. A histogram's derived `_quantile` family has no
/// row of its own (the reference says so above its table).
#[test]
fn readme_metrics_reference_matches_the_exposition() {
    let dir = test_dir("readme");
    let dir_tok = dir.to_str().unwrap();
    let e = engine();
    for ds in ["mem".to_string(), format!("dur dir {dir_tok}")] {
        ok(&e, &format!("open {ds}"));
        let name = ds.split(' ').next().unwrap();
        ok(&e, &format!("row {name} 28 85 Annot_1"));
        ok(&e, &format!("mine {name}"));
    }
    ok(&e, &format!("attach fol dir {dir_tok}"));
    e.service().sample_now();
    e.service().sample_now();

    let exposition = ok(&e, "metrics");
    let types: Vec<(&str, &str)> = (exposition.iter())
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split_once(' '))
        .collect();
    let mut exposed: Vec<&str> = (types.iter())
        .filter(|(family, _)| {
            let stem = family.strip_suffix("_quantile");
            !stem.is_some_and(|stem| types.contains(&(stem, "histogram")))
        })
        .map(|(family, _)| *family)
        .collect();
    exposed.sort_unstable();
    let mut documented: Vec<&str> = include_str!("../../../README.md")
        .lines()
        .filter_map(|row| row.strip_prefix("| `")?.split_once("` |"))
        .map(|(family, _)| family)
        .filter(|family| family.starts_with("anno_"))
        .collect();
    documented.sort_unstable();
    assert_eq!(
        documented, exposed,
        "left: README rows, right: # TYPE families"
    );
    ok(&e, "drop fol");
    ok(&e, "drop dur");
    std::fs::remove_dir_all(&dir).unwrap();
}
