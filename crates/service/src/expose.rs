//! Prometheus text exposition: the frozen `ServiceView` written out in
//! the `text/plain; version=0.0.4` format any Prometheus-compatible
//! scraper ingests. This is one of the three writers over the metric
//! tables in `metrics.rs` (the others are `stats` with the `datasets`
//! listing, and the role line): it knows the format, the tables know the
//! metrics, and it prints every row that has a family.
//!
//! Rendering is **metric-major**: one `# HELP`/`# TYPE` header per
//! family, then one series line per dataset (`{dataset="…"}`), which is
//! the shape the format requires (a family's series must be contiguous).
//! Histograms render their nonzero cumulative buckets plus the `+Inf`
//! bound, `_sum`, and `_count`; the derived quantiles (p50/p90/p99/max)
//! are exposed as a separate `_quantile` gauge family with a `quantile`
//! label rather than mixed into the histogram family, which would be
//! invalid exposition. Everything is computed from one frozen view, so a
//! scrape never mixes two instants of the same dataset.

use std::fmt::{Display, Write as _};

use anno_metrics::HistogramSnapshot;

use crate::metrics::{
    DatasetObs, Num, Row, COUNTERS, HISTOGRAMS, LEVELS, RATES, SERVICE, SERVICE_HISTOGRAMS,
};
use crate::service::{Service, ServiceView};

/// Render the whole service in Prometheus text exposition format.
pub fn render_prometheus(service: &Service) -> String {
    write_exposition(&service.observe())
}

fn write_exposition(service: &ServiceView) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let datasets: Vec<(&DatasetObs, String)> = (service.datasets.iter())
        .map(|(name, obs)| (obs, format!("dataset=\"{}\"", escape_label(name))))
        .collect();

    dataset_rows(&mut out, COUNTERS, &datasets);
    dataset_rows(&mut out, LEVELS, &datasets);
    for row in HISTOGRAMS {
        let snapshots: Vec<_> = (datasets.iter())
            .map(|(obs, labels)| (labels.as_str(), (row.get)(obs)))
            .collect();
        histogram(&mut out, row.family, row.help, &snapshots);
    }
    dataset_rows(&mut out, RATES, &datasets);

    // Service-level: a family whose section is absent (no committer yet,
    // fewer than two samples) is left out.
    for row in SERVICE {
        let (Some(f), Some(value)) = (row.family, service.read(row.read)) else {
            continue;
        };
        family(&mut out, f.name, f.help, f.typ());
        series(&mut out, f.name, "", value);
    }
    for row in SERVICE_HISTOGRAMS {
        histogram(&mut out, row.family, row.help, &[("", (row.get)(service))]);
    }
    out
}

/// One family per row of `rows` that has one, one series per dataset; an
/// absent section reads as 0.
fn dataset_rows(out: &mut String, rows: &[Row], datasets: &[(&DatasetObs, String)]) {
    for row in rows {
        let Some(f) = row.family else { continue };
        family(out, f.name, f.help, f.typ());
        for (obs, labels) in datasets {
            let value = obs.read(row.read).unwrap_or(Num::Count(0));
            if f.by_class {
                let class = obs.qos_class.label();
                series(out, f.name, &format!("{labels},class=\"{class}\""), value);
            } else {
                series(out, f.name, labels, value);
            }
        }
    }
}

/// Write a family's `# HELP` / `# TYPE` header.
fn family(out: &mut String, name: &str, help: &str, typ: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {typ}");
}

/// One series line; `labels` is a ready `k="v",…` list, possibly empty.
fn series(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name} {value}")
    } else {
        writeln!(out, "{name}{{{labels}}} {value}")
    };
}

/// A histogram family and its `_quantile` companion, one series set per
/// `(labels, snapshot)`. Buckets are cumulative and only nonzero ones
/// render — 496 mostly-empty `le` lines per histogram would drown the
/// scrape — with the mandatory `+Inf` bound always present.
fn histogram(out: &mut String, name: &str, help: &str, snapshots: &[(&str, &HistogramSnapshot)]) {
    family(out, name, help, "histogram");
    let (bucket, sum, count) = (
        format!("{name}_bucket"),
        format!("{name}_sum"),
        format!("{name}_count"),
    );
    for (labels, snap) in snapshots {
        let sep = if labels.is_empty() { "" } else { "," };
        for (bound, cumulative) in snap.cumulative() {
            series(
                out,
                &bucket,
                &format!("{labels}{sep}le=\"{bound}\""),
                cumulative,
            );
        }
        series(
            out,
            &bucket,
            &format!("{labels}{sep}le=\"+Inf\""),
            snap.count(),
        );
        series(out, &sum, labels, snap.sum());
        series(out, &count, labels, snap.count());
    }
    let quantile = format!("{name}_quantile");
    family(
        out,
        &quantile,
        "Derived quantiles of the histogram above.",
        "gauge",
    );
    for (labels, snap) in snapshots {
        let sep = if labels.is_empty() { "" } else { "," };
        let quantiles = [
            ("p50", snap.quantile(0.50)),
            ("p90", snap.quantile(0.90)),
            ("p99", snap.quantile(0.99)),
            ("max", snap.max()),
        ];
        for (q, value) in quantiles {
            series(
                out,
                &quantile,
                &format!("{labels}{sep}quantile=\"{q}\""),
                value,
            );
        }
    }
}

/// Escape a dataset name for use inside a label value (`\` and `"`;
/// protocol names are single tokens, but embedders can use anything).
fn escape_label(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::UpdateOp;
    use crate::service::ServiceConfig;

    #[test]
    fn scrape_renders_counters_gauges_histograms_and_rates() {
        let service = Service::new();
        let ds = service.create("db", ServiceConfig::default()).unwrap();
        ds.enqueue(UpdateOp::InsertRows(vec![
            "28 85 Annot_1".into(),
            "28 85 Annot_1".into(),
            "28 85".into(),
        ]))
        .unwrap();
        ds.mine().unwrap();
        // Two explicit samples bracket the traffic deterministically; the
        // sleep keeps their millisecond timestamps distinct so the window
        // has a nonzero timespan to rate over.
        service.sample_now();
        ds.raw_metrics().record_rule_query(1_000);
        ds.raw_metrics().record_rule_query(2_000);
        std::thread::sleep(std::time::Duration::from_millis(5));
        service.sample_now();

        let text = render_prometheus(&service);
        assert!(
            text.contains("# TYPE anno_query_latency_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("anno_query_latency_ns_count{dataset=\"db\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("anno_query_latency_ns_bucket{dataset=\"db\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("anno_write_queue_depth{dataset=\"db\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("anno_drains_per_sec{dataset=\"db\"}"),
            "{text}"
        );
        assert!(
            text.contains("anno_queries_per_sec{dataset=\"db\"}"),
            "{text}"
        );
        assert!(text.contains("anno_datasets 1"), "{text}");
        assert!(
            text.contains("anno_query_latency_ns_quantile{dataset=\"db\",quantile=\"p99\"}"),
            "{text}"
        );
        // Queries-per-sec must be positive: 2 queries landed between the
        // two samples.
        let qps_line = text
            .lines()
            .find(|l| l.starts_with("anno_queries_per_sec{dataset=\"db\"}"))
            .unwrap();
        let qps: f64 = qps_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(qps > 0.0, "{qps_line}");
    }

    /// The tables are the whole surface: a mined durable dataset and its
    /// follower already report every family in them, `stats` (with and
    /// without a name) every key in them, and the `metrics` verb the very
    /// text `GET /metrics` serves.
    #[test]
    fn every_table_row_reaches_both_writers() {
        let dir = std::env::temp_dir().join(format!("anno-expose-rows-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = std::sync::Arc::new(Service::new());
        let engine = crate::protocol::Engine::new(std::sync::Arc::clone(&service));
        let dir_tok = dir.to_str().unwrap();
        for line in [
            format!("open db 0.4 0.7 dir {dir_tok}"),
            "row db 28 85 Annot_1".to_string(),
            "row db 28 85 Annot_1".to_string(),
            "mine db".to_string(),
            format!("attach f dir {dir_tok}"),
        ] {
            let reply = engine.execute(&line).lines;
            assert!(reply[0].starts_with("OK"), "{line}: {reply:?}");
        }
        // Two samples, so the scrapes below agree on the service-wide
        // rate families whatever the background sampler does meanwhile.
        service.sample_now();
        service.sample_now();

        let text = render_prometheus(&service);
        let families =
            (COUNTERS.iter().chain(LEVELS).chain(RATES)).filter_map(|row| Some(row.family?.name));
        for family in families {
            for ds in ["db", "f"] {
                let series = format!("\n{family}{{dataset=\"{ds}\"");
                assert!(text.contains(&series), "{series} missing:\n{text}");
            }
        }
        for row in HISTOGRAMS {
            for suffix in ["_bucket", "_sum", "_count", "_quantile"] {
                let series = format!("\n{}{suffix}{{dataset=\"db\"", row.family);
                assert!(text.contains(&series), "{series} missing:\n{text}");
            }
        }
        let service_families = (SERVICE.iter().filter_map(|row| Some(row.family?.name)))
            .chain(SERVICE_HISTOGRAMS.iter().map(|row| row.family));
        for family in service_families {
            assert!(
                text.contains(&format!("\n{family}")),
                "{family} missing:\n{text}"
            );
        }

        let stats: Vec<String> = ["stats db", "stats f", "stats"]
            .iter()
            .flat_map(|line| engine.execute(line).lines)
            .collect();
        let stats = stats.join("\n");
        let keys =
            (COUNTERS.iter().chain(LEVELS).chain(RATES).chain(SERVICE)).filter_map(|row| row.key);
        for key in keys {
            assert!(
                stats.contains(&format!(" {key}=")) || stats.contains(&format!("\n{key}=")),
                "{key}= missing:\n{stats}"
            );
        }

        let verb = engine.execute("metrics").lines;
        let scrape = render_prometheus(&service);
        assert_eq!(verb[0], "OK metrics");
        assert_eq!(verb[verb.len() - 1], ".");
        let body: Vec<&str> = verb[1..verb.len() - 1].iter().map(String::as_str).collect();
        assert_eq!(body, scrape.lines().collect::<Vec<_>>());
        drop(engine);
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn label_escaping_handles_quotes() {
        assert_eq!(escape_label(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
