//! Live telemetry for the optimistic BFS engine (DESIGN.md §13).
//!
//! Everything observable so far — the flight recorder, `obfs analyze`,
//! the per-worker latency histograms — speaks only *after* a run ends.
//! This crate adds the always-on counterpart: a [`MetricsRegistry`] of
//! relaxed counters, gauges, and two-window decayed
//! [`LogHistogram`]s that a serve engine or long traversal updates on
//! its hot paths and that an operator can scrape *while* the run is in
//! flight, as Prometheus text exposition or JSON.
//!
//! # Memory-model discipline
//!
//! The registry follows the same rules as `obfs-sync::flight` and the
//! worker histograms (DESIGN.md §8): counter and gauge updates are
//! relaxed RMWs/stores, each metric written by one thread at a time,
//! and no update is ever used to *publish* other data — readers
//! (scrapes) only need each counter to be individually atomic and
//! monotone, never a consistent cut across counters. Where a caller
//! does need read-your-writes (an engine client observing its own
//! terminal query in `EngineStats`), the edge is provided by an
//! existing channel send/recv pair, not by the counters themselves.
//!
//! # Zero cost when off
//!
//! Nothing here is process-global or thread-local: a registry only
//! exists where a caller constructs one, and a traversal whose options
//! carry no [`RunTelemetry`] handle ([`worker`]) never touches one — no
//! clock reads, no allocation, no atomics.
//!
//! [`LogHistogram`]: obfs_util::LogHistogram

pub mod http;
pub mod registry;
pub mod span;
pub mod worker;

pub use http::MetricsServer;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
pub use span::{stage, SpanDump, SpanEvent, SpanLog};
pub use worker::RunTelemetry;

/// Parse a Prometheus text exposition back into `name{labels} -> value`
/// pairs, preserving document order. This is the "curl-equivalent" used
/// by `bombard --metrics-addr` and CI to validate a live scrape without
/// external tooling: `# HELP` / `# TYPE` comment lines are checked for
/// shape and skipped, every sample line must parse as `name value` or
/// `name{labels} value`.
pub fn parse_exposition(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {}: unknown comment {line:?}", lineno + 1));
            }
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in {line:?}", lineno + 1))?;
        let v: f64 =
            value.parse().map_err(|_| format!("line {}: bad value {value:?}", lineno + 1))?;
        let bare = name.split('{').next().unwrap_or(name);
        if bare.is_empty()
            || !bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        out.push((name.to_string(), v));
    }
    Ok(out)
}

/// Look up a plain (label-free) sample in [`parse_exposition`] output.
pub fn sample(parsed: &[(String, f64)], name: &str) -> Option<f64> {
    parsed.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parser_roundtrips_samples() {
        let text = "# HELP a_total help text\n# TYPE a_total counter\na_total 3\n\
                    q{quantile=\"0.5\"} 12\nq_sum 99.5\n";
        let parsed = parse_exposition(text).unwrap();
        assert_eq!(sample(&parsed, "a_total"), Some(3.0));
        assert_eq!(sample(&parsed, "q_sum"), Some(99.5));
        assert_eq!(sample(&parsed, "q{quantile=\"0.5\"}"), Some(12.0));
    }

    #[test]
    fn exposition_parser_rejects_garbage() {
        assert!(parse_exposition("no-value-here\n").is_err());
        assert!(parse_exposition("name not_a_number\n").is_err());
        assert!(parse_exposition("# BOGUS comment\n").is_err());
        assert!(parse_exposition("bad name! 3\n").is_err());
    }
}
