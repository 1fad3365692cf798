//! What one run prints: op counts, named metrics with units, and the
//! statistics helpers every workload shares.

use std::fmt::Write as _;

/// One named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops whose output was checked (algorithm calls, ticks, requests,
    /// checkpoint steps).
    pub attempted: u64,
    /// Ops whose output was wrong or which failed outright.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run) — whichever the run was asked for.
    pub metrics: Vec<Metric>,
    /// Decisions the program took that the timings depend on (ingest
    /// path counts, combined ticks), printed beside the metrics.
    pub decisions: Vec<(&'static str, f64)>,
    /// Human-readable notes for standard error.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn decision(&mut self, name: &'static str, value: f64) {
        self.decisions.push((name, value));
    }

    /// Count one checked op; `ok == false` makes it a failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Count an op that could not even run (a socket error, a server
    /// that died): failed, with the reason on standard error.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let attempted = self.attempted.max(1);
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.failed + u64::from(self.attempted == 0),
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The decision line printed just before the result line.
    pub fn decision_line(&self) -> String {
        let body: Vec<String> = self
            .decisions
            .iter()
            .map(|(name, value)| format!("\"{name}\": {}", json_number(*value)))
            .collect();
        format!("{{\"decisions\": {{{}}}}}", body.join(", "))
    }
}

/// A JSON number with all its digits; non-finite values (never expected)
/// become 0 so the line stays parseable.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Host CPU ticks from `/proc/stat`: `(all, stolen)`, or zeros where it
/// is unavailable.  The stolen share of a run's ticks says how much the
/// hypervisor took from the guest while it measured.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|rest| rest.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Share of the CPU ticks since `start` (a [`cpu_ticks`] reading) that
/// the hypervisor stole.
pub fn steal_share_since(start: (u64, u64)) -> f64 {
    let (all, stolen) = cpu_ticks();
    stolen.saturating_sub(start.1) as f64 / all.saturating_sub(start.0).max(1) as f64
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status").map(|s| vm_hwm_mb(&s)).unwrap_or(0.0)
}

/// Parse `VmHWM` (kB) out of a `/proc/<pid>/status` body, in MB.
pub fn vm_hwm_mb(status: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "wrong".into());
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn vm_hwm_parses_kilobytes() {
        assert_eq!(vm_hwm_mb("Name:\tx\nVmHWM:\t    2048 kB\n"), 2.0);
        assert_eq!(vm_hwm_mb("Name:\tx\n"), 0.0);
    }
}
