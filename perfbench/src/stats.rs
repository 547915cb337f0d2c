//! Sample statistics and the result line.

use std::time::Duration;

/// Latency samples of one kind, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    /// Adds a sample that is not a duration (a fraction, a version lag).
    pub fn push_value(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile (`p` in 0..=1); 0 for no samples.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (p * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The `p` percentile of each of `blocks` contiguous runs of samples
    /// (in the order they were pushed), then the median of those: a tail
    /// that one stalled second of the run cannot move.
    pub fn tail(&self, p: f64, blocks: usize) -> f64 {
        let size = self.0.len().div_ceil(blocks.max(1)).max(1);
        let per_block: Vec<f64> = self
            .0
            .chunks(size)
            .map(|c| Samples(c.to_vec()).pct(p))
            .collect();
        median(&per_block)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// The median of plain values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let len = s.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Full-precision JSON number (`{:?}` round-trips an f64); non-finite
/// values, which JSON cannot carry, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Reads `metrics.<name>.value` pairs back out of a result line written
/// by [`result_json`] (the repeat mode parses its children's output).
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(start) = line.find("\"metrics\": {") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &line[start + "\"metrics\": {".len()..];
    while let Some(open) = rest.find('"') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else { break };
        let name = rest[..close].to_string();
        let Some(at) = rest.find("\"value\": ") else {
            break;
        };
        rest = &rest[at + "\"value\": ".len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(value) = rest[..end].trim().parse::<f64>() {
            out.push((name, value));
        }
        let Some(next) = rest.find('}') else { break };
        rest = &rest[next + 1..];
    }
    out
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric {
                    name: "a.b",
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "c",
                    value: 7.0,
                    unit: "count",
                },
            ],
        );
        assert_eq!(
            parse_metrics(&line),
            vec![("a.b".to_string(), 1.25), ("c".to_string(), 7.0)]
        );
    }
}
