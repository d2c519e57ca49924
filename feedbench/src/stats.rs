//! Small statistics and reporting helpers.

/// The `q`-quantile (`0 < q <= 1`) of `values` by nearest rank; 0 when
/// `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The Harrell–Davis estimate of the `q`-quantile (`0 < q < 1`) of
/// `values`: a weighted mean of every order statistic, the `i`-th of `n`
/// weighted by the Beta((n+1)q, (n+1)(1−q)) probability of
/// `((i−1)/n, i/n]`; 0 when `values` is empty.
///
/// A nearest-rank quantile jumps to the next order statistic when one
/// request more or less falls below it, which on a stream whose latencies
/// come in clusters moves the figure by the width of a gap (30 ms at the
/// p90 of `mooc_zipf`'s repairs). This estimate moves by a fraction of it.
/// The Beta mass of each cell is integrated numerically (midpoint rule,
/// 16 points per cell, normalised), which needs no special functions.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    const POINTS_PER_CELL: usize = 16;
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = ((n as f64 + 1.0) * q, (n as f64 + 1.0) * (1.0 - q));
    let steps = n * POINTS_PER_CELL;
    let log_density = |k: usize| {
        let t = (k as f64 + 0.5) / steps as f64;
        (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
    };
    let peak = (0..steps).map(log_density).fold(f64::NEG_INFINITY, f64::max);
    let mut weighted = 0.0;
    let mut total = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let mass: f64 =
            (i * POINTS_PER_CELL..(i + 1) * POINTS_PER_CELL).map(|k| (log_density(k) - peak).exp()).sum();
        weighted += mass * x;
        total += mass;
    }
    weighted / total
}

/// The median of `values` with an even count taken as the midpoint of the
/// two middle values, so that it does not shift with the count's parity;
/// 0 when empty.
pub fn midpoint_median(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// The mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Resident set size of this process in MiB (`VmRSS`; 0 where procfs is
/// missing).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The machine's CPU time so far, from the first line of `/proc/stat`, in
/// clock ticks: time the CPUs ran work, and time the hypervisor ran
/// something else while one of them had work ("steal").
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    /// The counters now; zero where procfs is missing.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("cpu "))
            .map(|rest| rest.split_whitespace().filter_map(|f| f.parse().ok()).collect())
            .unwrap_or_default();
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        CpuTicks { busy: field(0) + field(1) + field(2) + field(5) + field(6), steal: field(7) }
    }

    /// The share of the CPU time wanted since `earlier` that the
    /// hypervisor took away: steal / (busy + steal). Wall-clock spans of
    /// that interval, times one minus this share, are what they would have
    /// been on CPUs of their own.
    pub fn steal_share_since(self, earlier: CpuTicks) -> f64 {
        let steal = self.steal.saturating_sub(earlier.steal) as f64;
        let busy = self.busy.saturating_sub(earlier.busy) as f64;
        share(steal, busy + steal)
    }
}

/// 64-bit FNV-1a, fed incrementally: a stable digest that does not depend
/// on the standard library's hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes` followed by a separator byte, so that field boundaries
    /// are part of the digest.
    pub fn field(&mut self, bytes: &[u8]) {
        for byte in bytes.iter().chain(std::iter::once(&0xFF)) {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Named metric values with units, printed as the benchmark's result.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`; non-finite values become 0.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }

    /// The recorded metrics, in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.0
    }

    /// The `"metrics"` JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(midpoint_median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(midpoint_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(midpoint_median(&[]), 0.0);
    }

    #[test]
    fn harrell_davis_quantiles_are_smooth_weighted_means() {
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
        assert!((hd_quantile(&[7.0; 9], 0.9) - 7.0).abs() < 1e-9);
        // Symmetric data: the median is the centre.
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!((hd_quantile(&values, 0.5) - 6.0).abs() < 1e-6);
        // Reference value from the closed-form Beta weights.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((hd_quantile(&ten, 0.9) - 9.4351).abs() < 1e-3, "{}", hd_quantile(&ten, 0.9));
        // One value more below a gap moves the estimate by a fraction of
        // the gap, where the nearest rank would jump across it.
        let mut below: Vec<f64> = vec![60.0; 89];
        below.extend([100.0; 11]);
        let mut above = below.clone();
        above[89] = 60.0;
        let (p, q) = (hd_quantile(&below, 0.9), hd_quantile(&above, 0.9));
        assert!((p - 86.407).abs() < 0.01 && (q - 81.414).abs() < 0.01, "{p} {q}");
    }

    #[test]
    fn steal_share_is_steal_over_wanted_time() {
        let before = CpuTicks { busy: 100, steal: 10 };
        let after = CpuTicks { busy: 400, steal: 110 };
        assert_eq!(after.steal_share_since(before), 0.25);
        assert_eq!(before.steal_share_since(before), 0.0);
        assert!(CpuTicks::now().steal_share_since(CpuTicks::default()) < 1.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut metrics = Metrics::default();
        metrics.put("latency_p50_ms", 1.5, "ms");
        metrics.put("bad", f64::NAN, "s");
        let json = metrics.to_json();
        let parsed = serde_json::parse_content(&json).expect("valid JSON");
        assert!(format!("{parsed:?}").contains("latency_p50_ms"));
        assert!(json.contains("\"bad\": {\"value\": 0.0"));
    }
}
