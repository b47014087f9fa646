//! Prometheus text exposition: the frozen [`ServiceView`] written out in
//! the `text/plain; version=0.0.4` format any Prometheus-compatible
//! scraper ingests. This is one of the two writers over the metric table
//! in `metrics.rs` (the other is `stats`' `key=value` line): it knows the
//! format, the table knows the metrics.
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

use crate::metrics::{COUNTERS, HISTOGRAMS, LEVELS, RATES};
use crate::service::{Service, ServiceView};

/// Render the whole service in Prometheus text exposition format.
pub fn render_prometheus(service: &Service) -> String {
    write_exposition(&service.observe())
}

fn write_exposition(service: &ServiceView) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let labels: Vec<String> = (service.datasets.iter())
        .map(|ds| format!("dataset=\"{}\"", escape_label(&ds.name)))
        .collect();
    let datasets = || service.datasets.iter().zip(&labels);

    for row in COUNTERS {
        let Some(name) = row.family else { continue };
        family(&mut out, name, row.help, "counter");
        for (ds, labels) in datasets() {
            series(&mut out, name, labels, (row.get)(&ds.obs.report));
        }
    }
    for row in LEVELS {
        family(&mut out, row.family, row.help, row.typ);
        for (ds, labels) in datasets() {
            let value = (row.get)(&ds.obs);
            if row.by_class {
                let class = ds.obs.qos_class().label();
                let labels = format!("{labels},class=\"{class}\"");
                series(&mut out, row.family, &labels, value);
            } else {
                series(&mut out, row.family, labels, value);
            }
        }
    }
    for row in HISTOGRAMS {
        let snapshots: Vec<_> = datasets()
            .map(|(ds, labels)| (labels.as_str(), (row.get)(&ds.obs)))
            .collect();
        histogram(&mut out, row.family, row.help, &snapshots);
    }
    // Windowed rates from the time-series ring (0 until two samples of
    // the dataset land in the window).
    for row in RATES {
        family(&mut out, row.family, row.help, "gauge");
        for (ds, labels) in datasets() {
            let rate = ds.windowed.as_ref().map_or(0.0, row.get);
            series(&mut out, row.family, labels, rate);
        }
    }

    // Service-level: registry size, the service journal, the shared
    // committer and its fsync latency, and service-wide windowed rates.
    let mut scalar = |name: &str, help: &str, typ: &str, value: &dyn Display| {
        family(&mut out, name, help, typ);
        series(&mut out, name, "", value);
    };
    scalar(
        "anno_datasets",
        "Registered datasets.",
        "gauge",
        &service.datasets.len(),
    );
    scalar(
        "anno_service_events_total",
        "Service-level journal events recorded (group-commit windows).",
        "counter",
        &service.events_total,
    );
    if let Some(gc) = &service.committer {
        scalar(
            "anno_grouped_submitted_total",
            "Appends submitted to the shared group committer.",
            "counter",
            &gc.submitted,
        );
        scalar(
            "anno_grouped_syncs_total",
            "fsyncs the shared committer issued.",
            "counter",
            &gc.syncs,
        );
        scalar(
            "anno_grouped_windows_total",
            "Sync windows the shared committer closed.",
            "counter",
            &gc.windows,
        );
    }
    if let Some(w) = &service.windowed {
        scalar(
            "anno_service_drains_per_sec",
            "Drains per second across all datasets.",
            "gauge",
            &w.drains_per_sec,
        );
        scalar(
            "anno_service_queries_per_sec",
            "Queries per second across all datasets.",
            "gauge",
            &w.queries_per_sec,
        );
        scalar(
            "anno_service_fsyncs_per_drain",
            "All fsyncs (committer + per-dataset) per drain.",
            "gauge",
            &w.fsyncs_per_drain,
        );
    }
    histogram(
        &mut out,
        "anno_service_fsync_latency_ns",
        "Shared group committer fsync latency.",
        &[("", &service.fsync_latency)],
    );
    out
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

    /// The table is the whole surface: a fresh dataset already reports
    /// every family in it, `stats <ds>` every key in it, and the
    /// `metrics` verb the very text `GET /metrics` serves.
    #[test]
    fn every_table_row_reaches_both_writers() {
        let service = std::sync::Arc::new(Service::new());
        service.create("db", ServiceConfig::default()).unwrap();
        // Two samples, so the scrapes below agree on the service-wide
        // rate families whatever the background sampler does meanwhile.
        service.sample_now();
        service.sample_now();
        let engine = crate::protocol::Engine::new(std::sync::Arc::clone(&service));

        let text = render_prometheus(&service);
        let families = (COUNTERS.iter().filter_map(|row| row.family))
            .chain(LEVELS.iter().map(|row| row.family))
            .chain(RATES.iter().map(|row| row.family));
        for family in families {
            let series = format!("\n{family}{{dataset=\"db\"");
            assert!(text.contains(&series), "{family} has no series:\n{text}");
        }
        for row in HISTOGRAMS {
            for suffix in ["_bucket", "_sum", "_count", "_quantile"] {
                let series = format!("\n{}{suffix}{{dataset=\"db\"", row.family);
                assert!(text.contains(&series), "{series} missing:\n{text}");
            }
        }

        let stats = engine.execute("stats db").lines.join("\n");
        let keys =
            (COUNTERS.iter().map(|row| row.key)).chain(LEVELS.iter().filter_map(|row| row.stats));
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
    }

    #[test]
    fn label_escaping_handles_quotes() {
        assert_eq!(escape_label(r#"a"b\c"#), r#"a\"b\\c"#);
    }
}
