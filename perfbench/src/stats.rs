//! Order statistics and a minimal JSON writer for the result lines.

/// The nearest-rank percentile `sorted[ceil(q·n) - 1]` (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of the candidate percentiles that leaves at least ten
/// samples beyond it, so a tail figure never rests on one or two
/// outliers. Falls back to the median for tiny sample sets.
pub fn tail_quantile(n: usize) -> f64 {
    for q in [0.99, 0.95, 0.90, 0.75] {
        let rank = (q * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return q;
        }
    }
    0.5
}

/// A latency series summarised as its median and its tail.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub tail_q: f64,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let tail_q = tail_quantile(samples.len());
    Summary {
        samples: samples.len(),
        p50: percentile(samples, 0.5),
        tail_q,
        tail: percentile(samples, tail_q),
    }
}

/// Builds one JSON object, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    parts: Vec<String>,
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON form (non-finite values and -0 become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.parts.push(format!("{}: {}", quote(key), json));
        self
    }

    pub fn num(self, key: &str, v: f64) -> Self {
        self.raw(key, num(v))
    }

    pub fn int(self, key: &str, v: u64) -> Self {
        self.raw(key, v.to_string())
    }

    pub fn str(self, key: &str, v: &str) -> Self {
        self.raw(key, quote(v))
    }

    pub fn bool(self, key: &str, v: bool) -> Self {
        self.raw(key, v.to_string())
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(5), 0.5);
    }
}
