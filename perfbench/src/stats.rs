//! Sample statistics, the metric report, and process memory readings.

use std::fmt::Write as _;

/// Quantile `q` of an ascending slice by linear interpolation between
/// closest ranks (Python's `statistics.quantiles(method="inclusive")`).
/// Exact, not bucketed: a median read from a histogram would step in
/// bucket-width increments and repeat exactly across runs.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The sample sorted ascending.
pub fn sorted(sample: &[f64]) -> Vec<f64> {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(sample: &[f64]) -> f64 {
    quantile(&sorted(sample), 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// The steadiness self-check: a median is flagged when its p45 and p55
/// differ by more than the metric's bound (as a share of the median),
/// because then a different draw of the same samples could move the
/// median by more than the bound allows.
pub fn steadiness_warning(name: &str, sample: &[f64], bound: f64) -> Option<String> {
    let s = sorted(sample);
    let (p45, p50, p55) = (quantile(&s, 0.45), quantile(&s, 0.5), quantile(&s, 0.55));
    let spread = (p55 - p45) / p50;
    (spread > bound).then(|| {
        format!(
            "unsteady: {name} p45..p55 = {p45:.4}..{p55:.4} spans {:.1}% of its median \
             ({} samples), above its {:.1}% bound",
            spread * 100.0,
            sample.len(),
            bound * 100.0
        )
    })
}

/// Peak resident set size (`VmHWM`) of a process, in MiB. `pid` is a
/// numeric pid or `"self"`.
pub fn peak_rss_mb(pid: &str) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other(format!("no VmHWM line in /proc/{pid}/status")))
}

/// One run's result: the answer-check tally plus named metrics, printed
/// as the single JSON line the benchmark contract asks for.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Checked operations that answered wrongly or not at all.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric; panics on a non-finite value, which would mean a
    /// division by an empty sample somewhere upstream.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// Counts checked answers: `ok == false` is a failure.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Share of checked answers that were right.
    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_inclusive_method() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn steadiness_flags_only_wide_middles() {
        let flat: Vec<f64> = (0..100).map(|i| 100.0 + f64::from(i) * 0.01).collect();
        assert!(steadiness_warning("x", &flat, 0.05).is_none());
        let wide: Vec<f64> = (0..10).map(|i| f64::from(i + 1) * 10.0).collect();
        assert!(steadiness_warning("x", &wide, 0.05).is_some());
    }

    #[test]
    fn report_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.check(true);
        r.metric("solve_ms_p50", 1.25, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"solve_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
